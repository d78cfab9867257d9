"""Arithmetic layer: sieve, Jacobi symbol, primality, factoring, valuations."""

import random

import pytest

from paritykit import arith
from paritykit.arith import factor, is_prime, jacobi, sieve_primes, valuation
from paritykit.errors import ComputationLimitError


def trial_division_prime(n):
    # independent oracle, no shortcuts
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_sieve_matches_trial_division():
    primes = [n for n in range(3001) if trial_division_prime(n)]
    for limit in range(3001):
        assert sieve_primes(limit) == [q for q in primes if q <= limit], limit


def test_sieve_edge_cases():
    assert sieve_primes(-5) == []
    assert sieve_primes(0) == []
    assert sieve_primes(1) == []
    assert sieve_primes(2) == [2]
    assert sieve_primes(3) == [2, 3]


def test_jacobi_against_square_enumeration():
    # for prime n the Jacobi symbol is the Legendre symbol
    for p in sieve_primes(120):
        if p == 2:
            continue
        squares = {x * x % p for x in range(1, p)}
        for a in range(p):
            expected = 0 if a == 0 else (1 if a in squares else -1)
            assert jacobi(a, p) == expected, (a, p)


def test_jacobi_multiplicative_in_lower_argument():
    rng = random.Random(1)
    for _ in range(300):
        m = rng.randrange(1, 200) * 2 + 1
        n = rng.randrange(1, 200) * 2 + 1
        a = rng.randrange(-500, 500)
        assert jacobi(a, m * n) == jacobi(a, m) * jacobi(a, n)


def test_jacobi_rejects_even_or_nonpositive_modulus():
    with pytest.raises(ValueError):
        jacobi(3, 10)
    with pytest.raises(ValueError):
        jacobi(3, 0)
    with pytest.raises(ValueError):
        jacobi(3, -7)


def test_is_prime_small_range():
    for n in range(5000):
        assert is_prime(n) == trial_division_prime(n), n


def test_is_prime_known_large_values():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**62 - 1)
    assert not is_prime((2**31 - 1) * (2**31 + 11))
    # Carmichael numbers fool Fermat tests, not this one
    for n in (561, 1105, 1729, 41041, 825265):
        assert not is_prime(n)


def test_is_prime_range_limits():
    assert is_prime(2**64 - 59)  # largest prime below 2**64
    with pytest.raises(ComputationLimitError):
        is_prime(2**64)
    with pytest.raises(ValueError):
        is_prime(-1)


def test_factor_round_trip_random():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(2, 10**9)
        fac = factor(n)
        prod = 1
        for p, e in fac:
            assert e >= 1
            assert trial_division_prime(p) if p < 10**6 else is_prime(p)
            prod *= p**e
        assert prod == n
        assert fac == sorted(fac)


def test_factor_specific_values():
    assert factor(1) == []
    assert factor(2) == [(2, 1)]
    assert factor(-12) == [(2, 2), (3, 1)]
    assert factor(2**10 * 3**5 * 7) == [(2, 10), (3, 5), (7, 1)]
    assert factor(600851475143) == [(71, 1), (839, 1), (1471, 1), (6857, 1)]
    # semiprime beyond the trial-division bound
    assert factor(1000003 * 1000033) == [(1000003, 1), (1000033, 1)]


def test_factor_zero_rejected():
    with pytest.raises(ValueError):
        factor(0)


def test_factor_budget_exhaustion():
    # two ~180-bit primes; rho cannot split this in a millisecond
    p = 2**89 - 1
    q = 2**107 - 1
    with pytest.raises(ComputationLimitError):
        factor(p * q, time_budget=0.001)


def reset_factor_cache(monkeypatch):
    # The state of a process that has not factored anything yet.
    monkeypatch.setattr(arith, "_factor_cache", {})


@pytest.fixture
def cold_factor_cache(monkeypatch):
    reset_factor_cache(monkeypatch)


def test_factor_prime_powers_skip_rho(cold_factor_cache):
    # rho needs about sqrt(q) = 10^6 steps to split q**k; a root test does not
    q = 1000000000039
    assert is_prime(q)
    assert factor(64 * q**3, time_budget=0.5) == [(2, 6), (q, 3)]
    assert factor(q**2, time_budget=0.5) == [(q, 2)]
    assert factor(q**5 * 1000003**2, time_budget=0.5) == [(1000003, 2), (q, 5)]
    # a power of a composite beyond the trial bound
    assert factor((1000003 * q) ** 2, time_budget=0.5) == [(1000003, 2), (q, 2)]


BOUNDARY_VALUES = (
    999983**2 * 1000003,
    1000003 * 1000033,
    999979 * 999983,  # second-largest factor just below 10^6, cofactor prime
    2 * 999983 * 1000000007,
    97 * 999961 * 999979 * 999983,
    # around the trial-division limit 2^16: 65521 is the last prime below it,
    # 65537 the first above
    65521 * 65537,
    65521**3 * 65537**2,
    2 * 65537 * 999983 * 1000000007,
)


def test_factor_small_call_sieves_little(cold_factor_cache):
    assert factor(69) == [(3, 1), (23, 1)]
    assert factor(1) == []


@pytest.mark.parametrize("n", BOUNDARY_VALUES)
def test_factor_independent_of_prime_list_state(n, monkeypatch, cold_factor_cache):
    cold = factor(n)
    prod = 1
    for p, e in cold:
        assert is_prime(p)
        prod *= p**e
    assert prod == n
    assert cold == sorted(cold)
    # same result after an unrelated small call
    reset_factor_cache(monkeypatch)
    factor(2 * 3 * 1009 * 1013)
    assert factor(n) == cold
    # and from a cold cache again
    monkeypatch.setattr(arith, "_factor_cache", {})
    assert factor(n) == cold


def test_valuation():
    assert valuation(12, 2) == 2
    assert valuation(12, 3) == 1
    assert valuation(12, 5) == 0
    assert valuation(-27, 3) == 3
    assert valuation(2**40, 2) == 40
    with pytest.raises(ValueError):
        valuation(0, 3)
    with pytest.raises(ValueError):
        valuation(12, 4)


def test_valuation_random_consistency():
    rng = random.Random(13)
    primes = [2, 3, 5, 7, 11, 13]
    for _ in range(200):
        p = rng.choice(primes)
        e = rng.randrange(0, 12)
        m = rng.randrange(1, 10**6)
        while m % p == 0:
            m += 1
        assert valuation(p**e * m, p) == e
