"""Exact rational arithmetic with p-adic valuation bookkeeping.

Rationals are plain ``fractions.Fraction`` values, which are always kept in
lowest terms with positive denominator; an element is p-integral (lies in the
local ring at p) exactly when p does not divide its denominator.  There is no
truncated p-adic expansion anywhere: residue arithmetic mod p^N happens only
in the Massey solvers, on integer matrices.
"""

from dataclasses import dataclass
from fractions import Fraction

INFINITY = float("inf")


class ConfigurationError(ValueError):
    """Bad session parameter (non-prime p, zero precision, ...)."""


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def require_prime(p):
    if not isinstance(p, int) or not is_prime(p):
        raise ConfigurationError(f"p = {p!r} is not a prime")


@dataclass(frozen=True)
class SessionConfig:
    """Global parameters shared by every computation in one run.

    prime: the session prime p.
    precision: residue computations happen mod p**precision.
    weight: truncation weight for divided-power form lattices.
    max_degree: largest cochain degree that reports cover.
    """

    prime: int = 2
    precision: int = 8
    weight: int = 4
    max_degree: int = 3

    def __post_init__(self):
        require_prime(self.prime)
        if self.precision < 1:
            raise ConfigurationError("precision must be >= 1")
        if self.weight < 1:
            raise ConfigurationError("weight must be >= 1")
        if self.max_degree < 0:
            raise ConfigurationError("max_degree must be >= 0")

    @property
    def modulus(self):
        return self.prime ** self.precision


def int_valuation(n, p):
    """v_p(n) for an integer n; +inf for 0."""
    if n == 0:
        return INFINITY
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(q, p):
    """p-adic valuation of a rational; +inf iff q == 0.

    q = p**v * (unit of the local ring at p).
    """
    require_prime(p)
    q = Fraction(q)
    if q == 0:
        return INFINITY
    return int_valuation(q.numerator, p) - int_valuation(q.denominator, p)


def binomial(n, k):
    """Exact binomial coefficient; 0 when k > n or k < 0 (convention)."""
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    num = 1
    den = 1
    for i in range(k):
        num *= n - i
        den *= i + 1
    return num // den


def factorial_valuation(n, p):
    """v_p(n!) by Legendre's formula."""
    v = 0
    q = p
    while q <= n:
        v += n // q
        q *= p
    return v

