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
import json
import math
import random
from typing import Callable, Iterable, Sequence

import numpy as np

#: Global tolerance for scalar equality.  Every "equals" / "is zero" test on
#: complex values in this package uses it.
EPS = 1e-9


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


class SemigroupError(ValueError):
    """Raised for malformed or invalid semigroup input."""


class FiniteSemigroup:
    """A finite semigroup together with an involutive automorphism.

    ``table[i, j]`` holds the index of ``elements[i] * elements[j]`` and
    ``sigma[i]`` the index of the automorphism image of ``elements[i]``.
    Instances are validated when built and immutable after:
    associativity, involutivity and multiplicativity of sigma are all
    checked exhaustively.  ``window`` is every element index.  ``kernels``
    memoizes the equations compiled on this carrier by
    :func:`addlaws.dsl.evaluate_residual`.
    """

    def __init__(self, name: str, elements: Sequence[str], table, sigma):
        self.name = name
        self.elements = tuple(str(e) for e in elements)
        self.index = {e: k for k, e in enumerate(self.elements)}
        self.window = range(len(self.elements))
        self.table = np.asarray(table, dtype=np.intp)
        self.sigma = np.asarray(sigma, dtype=np.intp)
        self.table.setflags(write=False)
        self.sigma.setflags(write=False)
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
    window pairs and associativity on a sample of triples drawn with seed 0
    (a full triple check would be cubic in the window size for no gain).
    ``kernels`` memoizes the equations compiled on this carrier by
    :func:`addlaws.dsl.evaluate_residual`, as on a finite one.
    """

    def __init__(self, name: str, mul: Callable, sig: Callable,
                 window: Sequence, triple_samples: int = 10_000):
        self.name = name
        self.mul = mul
        self.sig = sig
        self.window = tuple(window)
        self.triple_samples = triple_samples
        self.extras: dict = {}
        self.kernels: dict = {}
        self.validate()

    def __repr__(self):
        return f"WindowedSemigroup({self.name!r}, window={len(self.window)})"

    def validate(self) -> None:
        if not self.window:
            raise SemigroupError("empty window")
        sig, mul = self.sig, self.mul
        for x in self.window:
            if sig(sig(x)) != x:
                raise SemigroupError(f"sigma is not involutive at {x!r}")
        for x in self.window:
            for y in self.window:
                if sig(mul(x, y)) != mul(sig(x), sig(y)):
                    raise SemigroupError(
                        f"sigma is not multiplicative at ({x!r}, {y!r})")
        rng = random.Random(0)
        w = self.window
        for _ in range(self.triple_samples):
            x, y, z = rng.choice(w), rng.choice(w), rng.choice(w)
            if mul(mul(x, y), z) != mul(x, mul(y, z)):
                raise SemigroupError(
                    f"non-associative at ({x!r}, {y!r}, {z!r})")


class FnTable:
    """A complex-valued function on a semigroup.

    On a :class:`FiniteSemigroup` the function is a dense table aligned
    with the element order; on a :class:`WindowedSemigroup` it is a formula
    (any callable on carrier elements).  Either way evaluation is by call:
    ``f(x)`` with ``x`` an element index (finite) or a carrier element
    (windowed).
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
            v.setflags(write=False)
            self.values = v
            self.formula = None
        else:
            self.values = None
            self.formula = formula

    @property
    def finite(self) -> bool:
        return self.values is not None

    def __call__(self, x) -> complex:
        if self.values is not None:
            return complex(self.values[x])
        return complex(self.formula(x))

    def star(self) -> "FnTable":
        """The composition with the automorphism (f* = f o sigma)."""
        if self.values is None:
            raise ValueError("star needs a finite value table")
        return FnTable(self.domain, values=self.values[self.domain.sigma])

    def is_zero(self) -> bool:
        if self.values is None:
            raise ValueError("is_zero needs a finite value table")
        return bool(np.all(np.abs(self.values) <= EPS))

    def max_abs_diff(self, other: "FnTable") -> float:
        if self.values is None or other.values is None:
            raise ValueError("max_abs_diff needs finite value tables")
        return float(np.max(np.abs(self.values - other.values)))

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
            values[S.index[name]] = complex(pair[0], pair[1])
            seen.add(name)
        missing = set(S.elements) - seen
        if missing:
            raise ValueError(
                f"missing value(s) for: {', '.join(sorted(missing))}")
        return cls(S, values=values)


def fn(S, values_or_formula, label: str = "") -> FnTable:
    """Wrap raw values (finite) or a callable (windowed) as an FnTable."""
    if callable(values_or_formula):
        return FnTable(S, formula=values_or_formula, label=label)
    return FnTable(S, values=values_or_formula, label=label)


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
