"""Integer arithmetic for group orders and class sizes: factorization by
trial division, p-parts, primality and primitive roots.  Imports nothing
from the package, so every module can use it."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class ArithmeticProfile:
    """Multiplicative structure of a positive integer."""

    value: int
    prime_factors: tuple[tuple[int, int], ...]  # (prime, exponent), sorted
    primes: tuple[int, ...]                     # the primes of prime_factors
    is_composite: bool
    p_part: dict[int, int]  # prime -> largest p-power dividing value

    def part(self, p: int) -> int:
        return self.p_part.get(p, 1)

    def is_prime_power(self) -> bool:
        return len(self.prime_factors) == 1

    def is_pi_number(self, pi: set[int] | frozenset[int]) -> bool:
        return all(p in pi for p in self.primes)


@lru_cache(maxsize=65536)
def arithmetic_profile(n: int) -> ArithmeticProfile:
    """Full factorization by trial division (n is at most cap squared)."""
    if n < 1:
        raise ValueError(f"arithmetic_profile({n}): n must be >= 1")
    factors = []
    m, d = n, 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors.append((d, e))
        d += 1
    if m > 1:
        factors.append((m, 1))
    composite = n > 1 and not (len(factors) == 1 and factors[0][1] == 1)
    return ArithmeticProfile(n, tuple(factors), tuple(p for p, _ in factors), composite,
                             {p: p ** e for p, e in factors})


def is_prime(n: int) -> bool:
    return n > 1 and not arithmetic_profile(n).is_composite


def primitive_root(p: int) -> int:
    """The least generator of the multiplicative group modulo the prime p."""
    phi = p - 1
    for g in range(2, p):
        if all(pow(g, phi // f, p) != 1 for f in arithmetic_profile(phi).primes):
            return g
    raise ValueError(f"no primitive root mod {p}")  # pragma: no cover
