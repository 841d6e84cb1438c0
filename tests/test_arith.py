import math
import random
from fractions import Fraction

import pytest

from padicforms.arith import (
    ConfigurationError,
    INFINITY,
    SessionConfig,
    binomial,
    factorial_valuation,
    valuation,
)


def brute_valuation(q, p):
    """Oracle: strip factors of p from numerator/denominator directly."""
    q = Fraction(q)
    if q == 0:
        return INFINITY
    v = 0
    n = abs(q.numerator)
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def test_valuation_integers():
    assert valuation(12, 2) == 2
    assert valuation(0, 5) == INFINITY


def test_valuation_reduces_first():
    # 8/6 reduces to 4/3, so the 3-adic valuation is -1
    assert brute_valuation(Fraction(8, 6), 3) == -1
    assert valuation(Fraction(8, 6), 3) == -1


def test_valuation_requires_prime():
    with pytest.raises(ConfigurationError):
        valuation(Fraction(1, 2), 4)


def test_valuation_multiplicative():
    rng = random.Random(11)
    for _ in range(200):
        q1 = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        q2 = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        if q1 == 0 or q2 == 0:
            continue
        for p in (2, 3, 5):
            assert valuation(q1 * q2, p) == valuation(q1, p) + valuation(q2, p)


def test_valuation_ultrametric():
    rng = random.Random(12)
    for _ in range(200):
        q1 = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        q2 = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        if q1 + q2 == 0:
            continue
        for p in (2, 3):
            v1, v2 = valuation(q1, p), valuation(q2, p)
            assert valuation(q1 + q2, p) >= min(v1, v2)
            if v1 != v2:
                assert valuation(q1 + q2, p) == min(v1, v2)


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(17, 0) == 1
    assert binomial(6, 3) == 20
    assert binomial(3, 5) == 0


def test_binomial_pascal_exhaustive():
    for n in range(1, 65):
        for k in range(1, n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_binomial_against_math_comb():
    for n in range(0, 30):
        for k in range(0, n + 1):
            assert binomial(n, k) == math.comb(n, k)


def test_factorial_valuation_legendre():
    # oracle: factor the factorial directly
    for p in (2, 3, 5):
        fact = 1
        for n in range(0, 40):
            if n:
                fact *= n
            v, m = 0, fact
            while m % p == 0:
                m //= p
                v += 1
            assert factorial_valuation(n, p) == v


def test_session_config_validation():
    cfg = SessionConfig()
    assert (cfg.prime, cfg.precision, cfg.weight, cfg.max_degree) == (2, 8, 4, 3)
    assert cfg.modulus == 256
    with pytest.raises(ConfigurationError):
        SessionConfig(prime=6)
    with pytest.raises(ConfigurationError):
        SessionConfig(precision=0)
    with pytest.raises(ConfigurationError):
        SessionConfig(weight=0)
