"""Bundled semigroup instances, finite and windowed.

The finite bundle: the one-element semigroup, Z2 with the identity
automorphism, Z3 with inversion, Z2 x Z2 with the coordinate swap, and the
three-element null semigroup N3 with its non-trivial swap.  Two further
fixtures (M3 and NP4) carry characters with a non-empty prime part and are
exported for tests and demos but are not part of the standard bundle.

The windowed bundle: the multiplicative naturals with the prime-swap
automorphism, and the open square ]-1,1[^2 under coordinatewise
multiplication with the coordinate swap.  Both come with formula-defined
characters, additive-function families and rho families in ``extras``.
"""

from __future__ import annotations

import functools
import math
import operator
import random

import numpy as np

from .characters import AdditiveFn, RhoFn, WindowedChar
from .core import FiniteSemigroup, WindowedSemigroup, _draws


def z1() -> FiniteSemigroup:
    return FiniteSemigroup("Z1", ["e"], [[0]], [0])


def z2() -> FiniteSemigroup:
    return FiniteSemigroup("Z2", ["e", "a"], [[0, 1], [1, 0]], [0, 1])


def z3() -> FiniteSemigroup:
    """Cyclic group of order 3 with the inversion automorphism."""
    table = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    return FiniteSemigroup("Z3", ["e", "a", "b"], table, [0, 2, 1])


def z2xz2() -> FiniteSemigroup:
    """Klein group, elements named by coordinates, sigma swaps them."""
    names = ["00", "01", "10", "11"]
    idx = {n: k for k, n in enumerate(names)}
    table = [[idx[f"{(int(a[0]) ^ int(b[0]))}{(int(a[1]) ^ int(b[1]))}"]
              for b in names] for a in names]
    sigma = [idx[n[::-1]] for n in names]
    return FiniteSemigroup("Z2xZ2", names, table, sigma)


def n3() -> FiniteSemigroup:
    """Three-element null semigroup (every product is 0), sigma swaps a, b."""
    table = [[0, 0, 0]] * 3
    return FiniteSemigroup("N3", ["0", "a", "b"], table, [0, 2, 1])


def m3() -> FiniteSemigroup:
    """Monoid {1, p, 0} with p^2 = 0: smallest carrier whose zero character
    has a non-empty prime part ({p})."""
    table = [[0, 1, 2], [1, 2, 2], [2, 2, 2]]
    return FiniteSemigroup("M3", ["1", "p", "0"], table, [0, 1, 2])


def np4() -> FiniteSemigroup:
    """Monoid {e, p, q, z} where every product of non-identity elements is
    z, with sigma swapping p and q: supports odd rho functions."""
    table = [[0, 1, 2, 3], [1, 3, 3, 3], [2, 3, 3, 3], [3, 3, 3, 3]]
    return FiniteSemigroup("NP4", ["e", "p", "q", "z"], table, [0, 2, 1, 3])


def bundled_finite() -> list[FiniteSemigroup]:
    """The five finite semigroups of the standard bundle."""
    return [z1(), z2(), z3(), z2xz2(), n3()]


# ---------------------------------------------------------------------------
# Windowed example 1: (N \ {1}, *) with the 2 <-> 3 prime swap.
# ---------------------------------------------------------------------------

def _multiplicity(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def _primes_upto(limit: int) -> list[int]:
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for k in range(2, int(limit ** 0.5) + 1):
        if sieve[k]:
            sieve[k * k::k] = False
    return [int(v) for v in np.flatnonzero(sieve)]


@functools.lru_cache(maxsize=None)
def example1(window_max: int = 200) -> WindowedSemigroup:
    """Multiplicative naturals >= 2; sigma swaps the primes p = 2 and q = 3.

    The product is ``operator.mul``, a C callable, so the window checks and
    kernel compiles call it without a Python frame.

    extras:
      chi             the indicator of the complement of pN u qN
      additive_family coeffs dict {prime: coefficient} -> AdditiveFn
      rho_family      (c, parity) -> RhoFn on the prime part: c on its
                      multiples of p, +-c on those of q; every reader
                      tests membership first, so its formula does not
      primes          the primes in the window other than p and q
    """
    p, q = 2, 3

    def sig(n: int) -> int:
        # One frame per call: validation calls it once per window product.
        a = 0
        while n % p == 0:
            n //= p
            a += 1
        b = 0
        while n % q == 0:
            n //= q
            b += 1
        return n * p ** b * q ** a

    window = range(2, window_max + 1)

    def chi_formula(n: int) -> complex:
        return 0j if n % p == 0 or n % q == 0 else 1 + 0j

    def in_ideal(n: int) -> bool:
        return n % p == 0 or n % q == 0

    def in_ideal_square(n: int) -> bool:
        # x = a*b with both factors in the ideal needs two powers of p, two
        # of q, or one of each: divisibility by p^2, q^2 or pq.
        return n % (p * p) == 0 or n % (q * q) == 0 or n % (p * q) == 0

    def in_prime_part(n: int) -> bool:
        return in_ideal(n) and not in_ideal_square(n)

    W = WindowedSemigroup(
        "Example1", mul=operator.mul, sig=sig, window=window)

    chi = WindowedChar(W, chi_formula, in_ideal, in_ideal_square,
                       in_prime_part)
    free_primes = [r for r in _primes_upto(window_max) if r not in (p, q)]

    def additive_family(coeffs: dict[int, complex]) -> AdditiveFn:
        def formula(n: int) -> complex:
            return sum((c * _multiplicity(n, r) for r, c in coeffs.items()),
                       start=0j)
        return AdditiveFn(domain=lambda n: not in_ideal(n),
                          formula=formula, parity="even")

    def rho_family(c: complex, parity: str = "even") -> RhoFn:
        sign = 1 if parity == "even" else -1

        def formula(n: int) -> complex:
            return complex(c) if n % p == 0 else sign * complex(c)
        return RhoFn(domain=in_prime_part, formula=formula, parity=parity)

    W.extras.update({
        "chi": chi,
        "additive_family": additive_family,
        "rho_family": rho_family,
        "primes": free_primes,
    })
    return W


# ---------------------------------------------------------------------------
# Windowed example 2: ]-1,1[^2 under coordinatewise multiplication.
# ---------------------------------------------------------------------------

#: Grid coordinates are multiples of 1/16 so that all window products (up to
#: triples) are exact in double precision and structural checks need no
#: tolerance.
_GRID_STEP = 16


@functools.lru_cache(maxsize=None)
def example2() -> WindowedSemigroup:
    """The open square under coordinatewise multiplication, sigma swaps
    coordinates (``operator.itemgetter(1, 0)``, a C callable that returns
    the tuple ``(u[1], u[0])``).

    extras:
      chars           {"chi0", "chi_abs", "chi_sgn"}: the constant-one
                      character and the two even characters |x| |y| and x y
      additive_basis  (chi, parity) -> log-based candidates on the
                      non-ideal part (empty for chi0, whose ideal is empty)
      sample_pairs    (count, seed) -> pairs bounded away from the axes,
                      with exactly representable coordinates
    """
    coords = [k / _GRID_STEP for k in range(-_GRID_STEP + 1, _GRID_STEP)]
    window = [(x, y) for x in coords for y in coords]

    def mul(u, v):
        return (u[0] * v[0], u[1] * v[1])

    W = WindowedSemigroup("Example2", mul=mul, sig=operator.itemgetter(1, 0),
                          window=window)

    def on_axes(u) -> bool:
        return u[0] == 0.0 or u[1] == 0.0

    def never(_u) -> bool:
        return False

    chi0 = WindowedChar(W, lambda u: 1 + 0j, never, never, never)
    # Any point with a zero coordinate factors through the same axis, so the
    # ideal equals its own square and the prime part is empty.
    chi_abs = WindowedChar(W, lambda u: complex(abs(u[0]) * abs(u[1])),
                           on_axes, on_axes, never)
    chi_sgn = WindowedChar(W, lambda u: complex(u[0] * u[1]),
                           on_axes, on_axes, never)

    def log_candidate(a: complex, b: complex, parity: str) -> AdditiveFn:
        def formula(u) -> complex:
            return a * math.log(abs(u[0])) + b * math.log(abs(u[1]))
        return AdditiveFn(domain=lambda u: not on_axes(u), formula=formula,
                          parity=parity)

    def additive_basis(char, parity: str) -> list[AdditiveFn]:
        if char not in (chi0, chi_abs, chi_sgn):
            raise ValueError("unknown character for this carrier")
        if char is chi0:
            # The log forms are not defined on the axes, which chi0's
            # (empty) ideal does not remove.
            return []
        if parity == "even":
            return [log_candidate(1, 1, "even")]
        return [log_candidate(1, -1, "odd")]

    def sample_pairs(count: int, seed: int = 0):
        """`count` pairs of points whose coordinates are the draws of
        ``random.Random(seed).randint(-(2**20) + 1, 2**20 - 1) / 2**20``
        with |c| >= 1e-3, in order; the draws are taken in blocks (see
        :func:`addlaws.core._draws`), which adds no option."""
        # 20-bit dyadics keep pair products exact in doubles; randint(lo,
        # -lo) is lo + randrange(1 - 2 * lo).
        lo = -(2 ** 20) + 1
        coords = (c for c in ((lo + k) / 2 ** 20
                              for k in _draws(random.Random(seed), 1 - 2 * lo))
                  if abs(c) >= 1e-3)
        return [((next(coords), next(coords)), (next(coords), next(coords)))
                for _ in range(count)]

    W.extras.update({
        "chars": {"chi0": chi0, "chi_abs": chi_abs, "chi_sgn": chi_sgn},
        "additive_basis": additive_basis,
        "sample_pairs": sample_pairs,
    })
    return W


#: The builder of each bundled instance, keyed by its name in
#: :func:`example_semigroups`, so that one instance can be built alone.
BUNDLED = {"Z1": z1, "Z2": z2, "Z3": z3, "Z2xZ2": z2xz2, "N3": n3,
           "Example1": example1, "Example2": example2}


def example_semigroups() -> dict:
    """The bundled instances, keyed by name."""
    return {name: build() for name, build in BUNDLED.items()}
