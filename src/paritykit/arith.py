"""Integer arithmetic helpers: Jacobi symbol, primality, factoring, valuations.

Nothing is memoised: factor works out each factorization afresh, and a caller
that needs one again keeps it (local.CurveData keeps a curve's bad primes for
a run).  The only module state is the prime table _PRIMES, built at import.
"""

from __future__ import annotations

import itertools
import math
import time

from .errors import ComputationLimitError

# Factorization: list of (prime, exponent) pairs, primes ascending.
Factorization = list[tuple[int, int]]

# Below this bound the first twelve primes are proven-deterministic
# Miller-Rabin witnesses (covers everything under 3.3e24, so in particular 2^64).
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_IS_PRIME_BOUND = 2**64

_TRIAL_LIMIT = 2**16
_DEFAULT_FACTOR_BUDGET = 10.0


def sieve_primes(limit: int) -> list[int]:
    """Primes <= limit by Eratosthenes."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return list(itertools.compress(range(limit + 1), flags))


# Every prime up to _TRIAL_LIMIT, ascending: the trial divisors of factor and
# the primes the Sturm scan walks (cut with bisect).
_PRIMES = sieve_primes(_TRIAL_LIMIT)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi symbol requires a positive odd lower argument")
    a %= n
    result = 1
    while a:
        e = _valuation(a, 2)
        a >>= e
        if e % 2 and n % 8 in (3, 5):
            result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _miller_rabin(n: int, bases) -> bool:
    r = _valuation(n - 1, 2)
    d = (n - 1) >> r
    for a in bases:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64."""
    if n < 0:
        raise ValueError("is_prime requires a nonnegative integer")
    if n >= _IS_PRIME_BOUND:
        raise ComputationLimitError(
            "is_prime: %d is out of supported range (< 2**64)" % n
        )
    return _is_prime_unchecked(n)


def _is_prime_unchecked(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    if not _miller_rabin(n, _MR_BASES):
        return False
    if n < _MR_DETERMINISTIC_BOUND:
        return True
    # Huge cofactors met during factoring: extend the witness set. Strong
    # probable-prime only; fine here since primality proofs are out of scope.
    return _miller_rabin(n, (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97))


def _pollard_rho(n: int, deadline: float | None) -> int:
    # Brent's variant; n odd composite, no prime factor below 2^16.
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                if deadline is not None and time.monotonic() > deadline:
                    raise ComputationLimitError(
                        "factorization incomplete: time budget exhausted on %d" % n
                    )
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1  # rare cycle degeneracy: retry with a new polynomial


def _iroot(m: int, k: int) -> int:
    # floor(m ** (1/k)) for m >= 1, by Newton's method from above.
    if k == 2:
        return math.isqrt(m)
    x = 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(m: int) -> tuple[int, int]:
    """(r, k) with r**k == m and k largest, for m with no prime factor below 2^16."""
    # Each prime factor exceeds 2**16, so k * 16 < m.bit_length().
    for k in range(m.bit_length() // 16, 1, -1):
        r = _iroot(m, k)
        if r**k == m:
            return r, k
    return m, 1


def factor(n: int, time_budget: float | None = _DEFAULT_FACTOR_BUDGET) -> Factorization:
    """Prime factorization of |n| as (prime, exponent) pairs, primes ascending."""
    if n == 0:
        raise ValueError("cannot factor zero")
    n = abs(n)
    deadline = None if time_budget is None else time.monotonic() + time_budget
    out: dict[int, int] = {}
    for p in _PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            out[p] = _valuation(n, p)
            n //= p ** out[p]
    if n > 1:
        stack = [(n, 1)]  # (cofactor, multiplicity)
        while stack:
            m, e = stack.pop()
            if m < _TRIAL_LIMIT * _TRIAL_LIMIT or _is_prime_unchecked(m):
                # below the trial square every survivor is prime
                out[m] = out.get(m, 0) + e
                continue
            root, k = _perfect_power(m)
            if k > 1:
                # rho would need about sqrt(q) steps to split q**k
                stack.append((root, e * k))
                continue
            d = _pollard_rho(m, deadline)
            stack.append((d, e))
            stack.append((m // d, e))
    return sorted(out.items())


def valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n; n must be nonzero and p prime."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    if p < 2 or (p < _IS_PRIME_BOUND and not _is_prime_unchecked(p)):
        raise ValueError("valuation requires a prime modulus, got %d" % p)
    return _valuation(n, p)


def _valuation(n: int, p: int) -> int:
    # Unchecked valuation for callers that already know p is prime.  Zero gets
    # a sentinel larger than any exponent compared against it.
    if n == 0:
        return 10**9
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e
