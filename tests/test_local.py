"""Local data: point counts, Tate's algorithm, conductors, supersingularity."""

import math
import os
import pathlib
import random
import subprocess
import sys
import time

import numpy as np
import pytest

import paritykit
from paritykit import arith, local
from paritykit.errors import ComputationLimitError
from paritykit.local import (
    CurveData,
    LocalData,
    ReductionType,
    bad_reduction_data,
    conductor,
    count_points,
    euler_poly,
    is_supersingular,
    max_counting_prime,
    tate_local,
)
from paritykit.weierstrass import CurveModel, discriminant, invariants, minimal_model_at

E11 = CurveModel(0, -1, 1, -10, -20)
E14 = CurveModel(1, 0, 1, 4, -6)
E15 = CurveModel(1, 1, 1, -10, -10)
E27 = CurveModel(0, 0, 1, 0, -7)
E32 = CurveModel(0, 0, 0, -1, 0)
E37 = CurveModel(0, 0, 1, -1, 0)
E49 = CurveModel(1, -1, 0, -2, -1)
E64 = CurveModel(0, 0, 0, -4, 0)
E69 = CurveModel(1, 0, 1, -1, -1)
E897 = CurveModel(1, 0, 1, 130884, -59725523)
E5077 = CurveModel(0, 0, 1, -7, 6)


def brute_count(c, ell):
    """Exhaustive count on the full model, used as the counting oracle."""
    n = 1
    for x in range(ell):
        for y in range(ell):
            lhs = y * y + c.a1 * x * y + c.a3 * y
            rhs = x**3 + c.a2 * x * x + c.a4 * x + c.a6
            if (lhs - rhs) % ell == 0:
                n += 1
    return n


def good_primes(c, limit):
    d = discriminant(c)
    return [p for p in range(2, limit) if is_prime_naive(p) and d % p]


def is_prime_naive(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_count_points_matches_enumeration():
    rng = random.Random(101)
    curves = [E11, E37, E69, E897]
    for _ in range(30):
        c = CurveModel(*(rng.randrange(-6, 7) for _ in range(5)))
        if discriminant(c) != 0:
            curves.append(c)
    for c in curves:
        for ell in good_primes(c, 60):
            assert count_points(c, ell) == brute_count(c, ell), (c, ell)


def test_count_points_uses_local_minimal_model():
    # globally non-minimal at 2 but fine at 5: counting still works
    big = CurveModel(0, 0, 0, -16, 0)
    small = minimal_model_at(big, 2)
    for ell in (5, 7, 11, 13):
        assert count_points(big, ell) == count_points(small, ell)


def test_count_points_frozen_traces():
    # a_ell = ell + 1 - #E(F_ell)
    assert 5 + 1 - count_points(E69, 5) == 0
    assert 5 + 1 - count_points(E897, 5) == 0
    assert 2 + 1 - count_points(E69, 2) == 1
    assert 13 + 1 - count_points(E69, 13) == -6
    assert 37 + 1 - count_points(E32, 37) == -2
    assert 83 + 1 - count_points(E32, 83) == 0
    assert 5 + 1 - count_points(E11, 5) == 1


def test_count_points_hasse_bound_random():
    rng = random.Random(103)
    primes = [p for p in range(5, 3000) if is_prime_naive(p)]
    for _ in range(150):
        c = CurveModel(*(rng.randrange(-50, 51) for _ in range(5)))
        if discriminant(c) == 0:
            continue
        ell = rng.choice(primes)
        if discriminant(c) % ell == 0:
            continue
        a = ell + 1 - count_points(c, ell)
        assert a * a <= 4 * ell


def character_sum_count(A, B, ell):
    """#E(F_ell) of y^2 = x^3 + A*x + B as sum over v of #{x: f(x) = v} * #{y: y^2 = v}.

    Written apart from the counter (numpy histograms, no Legendre symbol) and
    used as its oracle on both sides of the Shanks-Mestre crossover, up to
    about 2*10^6, where int64 products stay exact.
    """
    t = np.arange(ell, dtype=np.int64)
    roots = np.bincount(t * t % ell, minlength=ell)
    values = np.bincount(((t * t % ell) * t + A % ell * t + B % ell) % ell, minlength=ell)
    return 1 + int(np.dot(roots, values))


def primes_from(start, count):
    out, n = [], start
    while len(out) < count:
        if is_prime_naive(n):
            out.append(n)
        n += 1
    return out


# Tests that check every small prime against the O(ell) oracle run up to here,
# wherever the Shanks-Mestre crossover sits below it.
SMALL_PRIMES_END = max(5000, local._BSGS_MIN_ELL)


def general_count(A, B, ell):
    """#E by the general path of the kernel: the character sum or Shanks-Mestre.

    Forms with B = 0 mod ell take the j = 1728 formula inside the kernel, so
    tests that use them as hard cases for the general counters call this too.
    """
    A, B = A % ell, B % ell
    if ell >= local._BSGS_MIN_ELL:
        return local._shanks_mestre(A, B, ell)
    return local._character_sum(local._character_table(ell), A, B, ell)


def check_against_oracle(A, B, ell, general=False):
    c = CurveModel(0, 0, 0, A, B)
    if (4 * A**3 + 27 * B**2) % ell == 0:
        return False
    expected = character_sum_count(A, B, ell)
    assert count_points(c, ell) == expected, (A, B, ell)
    if general:
        assert general_count(A, B, ell) == expected, (A, B, ell)
    return True


def good_pairs(forms):
    """(model, invariants) pairs of y^2 = x^3 + A*x + B for the counting kernel.

    The kernel counts the short form (6^4*A, 6^6*B) of each model, which is
    isomorphic to it over F_ell and keeps the quartic and sextic classes of A
    and B, so each (A, B) takes the same counting method as the raw form.
    """
    return [(m, invariants(m)) for m in (CurveModel(0, 0, 0, A, B) for A, B in forms)]


def test_shared_table_kernel_matches_oracle():
    # The character-sum kernel counts one or several curves per call on one
    # table; every prime below the crossover and below 5000, with random,
    # j = 0 and j = 1728 curves, alone and in pairs.
    rng = random.Random(229)
    for ell in (q for q in range(5, SMALL_PRIMES_END) if is_prime_naive(q)):
        forms = [(rng.randrange(ell), rng.randrange(ell)) for _ in range(2)]
        forms += [(0, rng.randrange(1, ell)), (rng.randrange(1, ell), 0)]
        forms = [(A, B) for A, B in forms if (4 * A**3 + 27 * B**2) % ell]
        expected = [character_sum_count(A, B, ell) for A, B in forms]
        assert [local._count_good(ell, good_pairs([f]))[0] for f in forms] == expected, ell
        pairs = [local._count_good(ell, good_pairs(forms[k : k + 2])) for k in range(0, len(forms), 2)]
        assert sum(pairs, []) == expected, ell
        assert local._count_good(ell, good_pairs(forms[::-1])) == expected[::-1], ell
        # the (A, 0) forms take the j = 1728 formula; the table path must still count them
        for (A, B), n in zip(forms, expected):
            assert general_count(A, B, ell) == n, (A, B, ell)


def test_j1728_formula_matches_oracles():
    # y^2 = x^3 + A*x for one A in each quartic residue class: against the
    # character-sum oracle at every prime below the crossover and below 5000,
    # and against Shanks-Mestre at seeded primes up to 10^8, both residues mod 4.
    for ell in (q for q in range(5, SMALL_PRIMES_END) if is_prime_naive(q)):
        for A in power_classes(ell, 4):
            expected = character_sum_count(A, 0, ell)
            assert ell + 1 - local._trace_j1728(A, ell) == expected, (A, ell)
            assert local._count_good(ell, good_pairs([(A, 0)])) == [expected], (A, ell)
    rng = random.Random(233)
    residues = []
    for _ in range(300):
        ell = rng.randrange(local._BSGS_MIN_ELL, 10**8)
        while not arith.is_prime(ell):
            ell += 1
        A = rng.randrange(1, ell)
        assert ell + 1 - local._trace_j1728(A, ell) == local._shanks_mestre(A, 0, ell), (A, ell)
        residues.append(ell % 4)
    assert residues.count(1) > 100 and residues.count(3) > 100


def test_bsgs_crossover_respects_mestre_bound():
    # Mestre's theorem makes the twist walk end with one group order only
    # for ell > 229.
    assert local._BSGS_MIN_ELL > 229


def test_count_points_oracle_random_large_primes():
    rng = random.Random(211)
    checked = 0
    lo, hi = local._BSGS_MIN_ELL, 2 * 10**6
    for _ in range(24):
        # log-uniform between the crossover and hi
        (ell,) = primes_from(int(lo * (hi / lo) ** rng.random()), 1)
        A, B = rng.randrange(-(10**6), 10**6), rng.randrange(-(10**6), 10**6)
        checked += check_against_oracle(A, B, ell)
    assert checked >= 20


def test_count_points_oracle_crossover_boundary():
    lo = local._BSGS_MIN_ELL
    below = max(p for p in range(lo - 200, lo) if is_prime_naive(p))
    (at,) = primes_from(lo, 1)
    rng = random.Random(223)
    for ell in (below, at):
        for _ in range(20):
            check_against_oracle(rng.randrange(ell), rng.randrange(ell), ell)


def power_classes(ell, k):
    """Representatives g^0, ..., g^(k-1) of the classes of F_ell^* mod k-th powers (k | 12)."""
    orders = [q for q in (2, 3) if (ell - 1) % q == 0]
    g = next(g for g in range(2, ell) if all(pow(g, (ell - 1) // q, ell) != 1 for q in orders))
    return [pow(g, i, ell) for i in range(k)]


def test_count_points_oracle_j0_j1728():
    # y^2 = x^3 + B and y^2 = x^3 + A*x over every sextic and quartic residue
    # class: these include groups with full 2- or 3-torsion (non-cyclic) and
    # points of small order.
    for ell in primes_from(local._BSGS_MIN_ELL, 2) + primes_from(30011, 2) + [1000033]:
        for B in power_classes(ell, 6):
            assert check_against_oracle(0, B, ell)
        for A in power_classes(ell, 4):
            assert check_against_oracle(A, 0, ell, general=True)
    # x^3 - x has three roots, so E(F_ell) contains Z/2 x Z/2
    for ell in primes_from(100000, 4):
        assert check_against_oracle(-1, 0, ell, general=True)


def test_count_points_oracle_hasse_endpoints():
    # At ell = (u^2 + 3)/4 one sextic twist of j = 0, and at ell = u^2 + 1 one
    # quartic twist of j = 1728, has |a_ell| = floor(2*sqrt(ell)): its group
    # order is an endpoint of the Hasse interval.
    lo = local._BSGS_MIN_ELL
    j0_primes = ((u * u + 3) // 4 for u in range(math.isqrt(4 * lo) | 1, 10**4, 2))
    j1728_primes = (u * u + 1 for u in range(math.isqrt(lo), 10**4))
    ell0 = next(p for p in j0_primes if p >= lo and is_prime_naive(p))
    ell1 = next(p for p in j1728_primes if p >= lo and is_prime_naive(p))
    for ell, shapes in (
        (ell0, [(0, B) for B in power_classes(ell0, 6)]),
        (ell1, [(A, 0) for A in power_classes(ell1, 4)]),
    ):
        traces = []
        for A, B in shapes:
            assert check_against_oracle(A, B, ell, general=True)
            traces.append(ell + 1 - count_points(CurveModel(0, 0, 0, A, B), ell))
        assert max(abs(a) for a in traces) == math.isqrt(4 * ell), (ell, traces)


def test_count_points_oracle_trace_zero():
    # supersingular CM curves: a_ell = 0 for j = 1728 at ell = 3 mod 4 and
    # for j = 0 at ell = 2 mod 3
    for ell in primes_from(local._BSGS_MIN_ELL, 12) + primes_from(1500000, 12):
        if ell % 4 == 3:
            assert check_against_oracle(-7, 0, ell, general=True)
            assert count_points(CurveModel(0, 0, 0, -7, 0), ell) == ell + 1
        if ell % 3 == 2:
            assert check_against_oracle(0, 5, ell)
            assert count_points(CurveModel(0, 0, 0, 0, 5), ell) == ell + 1


def test_count_points_oracle_first_point_on_twist():
    # The short model of [0,0,0,A,B] is y^2 = x^3 + 6^4*A*x + 6^6*B, so the
    # first point the counter tries (x = 0) lies on the twist exactly when B
    # is a nonsquare mod ell.
    rng = random.Random(227)
    checked = 0
    for ell in primes_from(local._BSGS_MIN_ELL, 5) + primes_from(400000, 5):
        while True:
            A, B = rng.randrange(1, ell), rng.randrange(1, ell)
            if pow(B, (ell - 1) // 2, ell) == ell - 1:
                break
        checked += check_against_oracle(A, B, ell)
    assert checked >= 8


def _proj_add(P, Q, a, q):
    """Homogeneous projective sum on y^2 = x^3 + a*x + b; O is (0 : 1 : 0)."""
    X1, Y1, Z1 = P
    X2, Y2, Z2 = Q
    if Z1 % q == 0:
        return Q
    if Z2 % q == 0:
        return P
    u = (Y2 * Z1 - Y1 * Z2) % q
    v = (X2 * Z1 - X1 * Z2) % q
    if v == 0:
        if u != 0 or Y1 % q == 0:
            return (0, 1, 0)
        w = (a * Z1 * Z1 + 3 * X1 * X1) % q
        s = Y1 * Z1 % q
        h4 = X1 * Y1 * s % q
        h = (w * w - 8 * h4) % q
        return (2 * h * s % q, (w * (4 * h4 - h) - 8 * Y1 * Y1 * s * s) % q, 8 * s**3 % q)
    w = (u * u * Z1 * Z2 - v**3 - 2 * v * v * X1 * Z2) % q
    return (v * w % q, (u * (v * v * X1 * Z2 - w) - v**3 * Y1 * Z2) % q, v**3 * Z1 * Z2 % q)


def _proj_mul(k, P, a, q):
    out = (0, 1, 0)
    for bit in bin(k)[2:]:
        out = _proj_add(out, out, a, q)
        if bit == "1":
            out = _proj_add(out, P, a, q)
    return out


def _sqrt_mod(n, q):
    """Tonelli-Shanks square root of a nonzero square n mod the odd prime q."""
    s, d = 0, q - 1
    while d % 2 == 0:
        s, d = s + 1, d // 2
    z = next(z for z in range(2, q) if pow(z, (q - 1) // 2, q) == q - 1)
    m, c, t, r = s, pow(z, d, q), pow(n, d, q), pow(n, (d + 1) // 2, q)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % q, i + 1
        b = pow(c, 1 << (m - i - 1), q)
        m, c, t, r = i, b * b % q, t * b * b % q, r * b % q
    return r


def _points(a, b, q, rng, count):
    out = []
    while len(out) < count:
        x = rng.randrange(q)
        f = (x**3 + a * x + b) % q
        if f and pow(f, (q - 1) // 2, q) == 1:
            y = _sqrt_mod(f, q)
            assert y * y % q == f
            out.append((x, y, 1))
    return out


def _affine(P, q):
    X, Y, Z = P
    zi = pow(Z, -1, q)
    return X * zi % q, Y * zi % q


def _killing_set(pt, a, q, lo, hi):
    """Every n in [lo, hi] with n*pt = O, one addition at a time."""
    P = (*pt, 1)
    out, Q = set(), _proj_mul(lo, P, a, q)
    for n in range(lo, hi + 1):
        if Q[2] % q == 0:
            out.add(n)
        Q = _proj_add(Q, P, a, q)
    return out


def _point_of_order(k, a, b, q, n, rng):
    """A point of exact order k on y^2 = x^3 + a*x + b with n points, or None."""
    for P in _points(a, b, q, rng, 20):
        Q = _proj_mul(n // k, P, a, q)
        if all(_proj_mul(k // r, Q, a, q)[2] % q for r in (2, 3, 5) if k % r == 0):
            return _affine(Q, q)
    return None


def test_killing_orders_match_brute_force():
    # The walk against a brute-force killing set, on the Hasse interval and on
    # a narrower window.  Points of order 2 (y = 0) to 6 meet O among the baby
    # steps and at giant centres; random points match with either sign.
    rng = random.Random(239)
    for q in primes_from(local._BSGS_MIN_ELL, 2) + primes_from(100000, 1) + primes_from(10**6, 1):
        # y^2 = x^3 - x: three points of order 2
        cases = [(q - 1, (x, 0)) for x in (0, 1, q - 1)]
        orders = {2, 3, 4, 5, 6}
        while orders:
            a, b = rng.randrange(q), rng.randrange(1, q)
            if (4 * a**3 + 27 * b * b) % q == 0:
                continue
            n = character_sum_count(a, b, q)
            if len(cases) == 3:
                cases += [(a, _affine(P, q)) for P in _points(a, b, q, rng, 3)]
            for k in [k for k in orders if n % k == 0]:
                pt = _point_of_order(k, a, b, q, n, rng)
                if pt is not None:
                    cases.append((a, pt))
                    orders.remove(k)
        r = math.isqrt(4 * q)
        hasse = (q + 1 - r, q + 1 + r)
        for lo, hi in (hasse, (q + 8 - r, q - 2 + r)):
            for a, pt in cases:
                expected = _killing_set(pt, a, q, lo, hi)
                assert expected or (lo, hi) != hasse
                assert local._killing_orders(pt, a, q, lo, hi) == expected, (q, a, pt, lo, hi)


def test_count_points_near_default_ceiling():
    # 99999989 is the last prime below 10^8, where the O(ell) oracle would
    # take seconds and hundreds of MB.  Check instead: Hasse, N*P = O on E,
    # (2*ell + 2 - N)*Q = O on the quadratic twist, and the CM formula
    # a_ell = +-2u for ell = u^2 + v^2 with u odd (y^2 = x^3 - x, ell = 1 mod 4).
    ell = 99999989
    assert is_prime_naive(ell) and ell % 4 == 1
    start = time.perf_counter()
    n = count_points(E32, ell)
    assert time.perf_counter() - start < 1.0
    a = ell + 1 - n
    assert a * a <= 4 * ell
    rng = random.Random(229)
    for P in _points(-1, 0, ell, rng, 4):
        assert _proj_mul(n, P, -1, ell)[2] == 0
    g = next(g for g in range(2, ell) if pow(g, (ell - 1) // 2, ell) == ell - 1)
    twist_a = -g * g % ell  # y^2 = x^3 - g^2*x
    for Q in _points(twist_a, 0, ell, rng, 4):
        assert _proj_mul(2 * ell + 2 - n, Q, twist_a, ell)[2] == 0
        assert _proj_mul(n, Q, twist_a, ell)[2] != 0
    # ell = u^2 + v^2 by Cornacchia from a square root of -1
    r0, r1 = ell, _sqrt_mod(ell - 1, ell)
    while r1 * r1 > ell:
        r0, r1 = r1, r0 % r1
    u, v = r1, int((ell - r1 * r1) ** 0.5)
    assert u * u + v * v == ell
    odd = u if u % 2 else v
    assert abs(a) == 2 * odd
    # That count took the j = 1728 formula.  Shanks-Mestre must give the same
    # count within the same time limit, and count E11 (j != 1728) there too.
    start = time.perf_counter()
    assert local._shanks_mestre(ell - 1, 0, ell) == n
    assert time.perf_counter() - start < 1.0
    A, B = (t % ell for t in local._short_form(invariants(E11)))
    start = time.perf_counter()
    n11 = count_points(E11, ell)
    assert time.perf_counter() - start < 1.0
    assert (ell + 1 - n11) ** 2 <= 4 * ell
    for P in _points(A, B, ell, rng, 4):
        assert _proj_mul(n11, P, A, ell)[2] == 0
    twist_a, twist_b = A * g * g % ell, B * g**3 % ell
    for Q in _points(twist_a, twist_b, ell, rng, 4):
        assert _proj_mul(2 * ell + 2 - n11, Q, twist_a, ell)[2] == 0
        assert _proj_mul(n11, Q, twist_a, ell)[2] != 0


PEAK_RSS_KIB = """
import os, resource, sys
from paritykit.local import _shanks_mestre, count_points
from paritykit.weierstrass import CurveModel
count_points(CurveModel(0, 0, 0, -1, 0), 4035637)
# the count above takes the j = 1728 formula: also run the general counter
# on the same shape and on E11
_shanks_mestre(4035636, 0, 4035637)
count_points(CurveModel(0, -1, 1, -10, -20), 4035637)
# VmHWM is the peak of this process image alone; on Linux ru_maxrss also
# counts the forking test process, which holds far more than 64 MB.
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as status:
        print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
else:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(peak // 1024 if sys.platform == "darwin" else peak)
"""


def test_large_count_memory_stays_small():
    # A count at the family's largest bad prime must not build O(ell) arrays;
    # importing numpy and paritykit alone peaks near 29 MB.
    src = str(pathlib.Path(paritykit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_KIB], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stdout) / 1024
    assert peak_mb < 64, peak_mb


def test_count_points_input_gates():
    for probe in (count_points, tate_local):
        for ell in (10, -5, 1):
            with pytest.raises(ValueError, match="%d is not a prime" % ell):
                probe(E11, ell)
    with pytest.raises(ValueError, match="tate_local"):
        count_points(E11, 11)


def test_singular_models_are_rejected():
    # A cusp and a node; a prime is checked before the model, as minimal_model_at does.
    for c in (CurveModel(0, 0, 0, 0, 0), CurveModel(0, 1, 0, 0, 0)):
        assert discriminant(c) == 0
        with pytest.raises(ValueError, match="^singular model: discriminant is zero$"):
            CurveData(c)
        for probe in (tate_local, minimal_model_at, count_points):
            for ell in (2, 3, 5, 7):
                with pytest.raises(ValueError, match="^singular model: discriminant is zero$"):
                    probe(c, ell)
            with pytest.raises(ValueError, match="10 is not a prime"):
                probe(c, 10)


def test_counting_ceiling(monkeypatch):
    assert max_counting_prime() == 10**8
    monkeypatch.setenv("PARITYKIT_MAX_ELL", "100")
    assert max_counting_prime() == 100
    message = (
        "prime too large for point counting: 101 exceeds the ceiling 100; "
        "raise PARITYKIT_MAX_ELL"
    )
    for probe in (count_points, tate_local, is_supersingular):
        with pytest.raises(ComputationLimitError, match=message):
            probe(E11, 101)
    assert count_points(E11, 97) > 0
    monkeypatch.setenv("PARITYKIT_MAX_ELL", "4")
    with pytest.raises(ValueError):
        max_counting_prime()


def test_tate_good_prime():
    d = tate_local(E11, 7)
    assert d == LocalData(7, ReductionType.GOOD, 0, 0, -2, "I0")


def test_multiplicative_types_and_split_oracle():
    # on a nodal reduction the projective point count is ell (split)
    # or ell + 2 (nonsplit): smooth part ell -+ 1 plus the node
    cases = [
        (E11, 11),
        (E14, 2),
        (E14, 7),
        (E15, 3),
        (E15, 5),
        (E37, 37),
        (E69, 3),
        (E69, 23),
        (E897, 3),
        (E897, 13),
        (E897, 23),
        (E5077, 5077),
    ]
    for c, ell in cases:
        d = tate_local(c, ell)
        assert d.red_type.is_multiplicative
        assert d.cond_exp == 1
        assert d.kodaira == "I%d" % d.v_disc
        if ell < 200:
            projective = brute_count(c, ell)
            if d.red_type is ReductionType.SPLIT_MULTIPLICATIVE:
                assert projective == ell, (c, ell)
                assert d.trace == 1
            else:
                assert projective == ell + 2, (c, ell)
                assert d.trace == -1


def test_frozen_split_assignments():
    assert tate_local(E14, 2).red_type is ReductionType.NONSPLIT_MULTIPLICATIVE
    assert tate_local(E15, 3).red_type is ReductionType.NONSPLIT_MULTIPLICATIVE
    assert tate_local(E15, 5).red_type is ReductionType.SPLIT_MULTIPLICATIVE
    assert tate_local(E11, 11).red_type is ReductionType.SPLIT_MULTIPLICATIVE


def test_split_oracle_random_curves_at_2_and_3():
    # Seeded random curves until each of 2 and 3 has 2000 multiplicative
    # reductions.  The projective count of the reduction of the minimal model
    # is ell when split and ell + 2 when nonsplit.
    rng = random.Random(241)
    seen = {2: {True: 0, False: 0}, 3: {True: 0, False: 0}}
    while min(sum(by_split.values()) for by_split in seen.values()) < 2000:
        c = CurveModel(*(rng.randrange(-60, 61) for _ in range(5)))
        disc = discriminant(c)
        for ell, by_split in seen.items():
            if disc == 0 or disc % ell:
                continue
            d = tate_local(c, ell)
            if not d.red_type.is_multiplicative:
                continue
            split = d.red_type is ReductionType.SPLIT_MULTIPLICATIVE
            projective = brute_count(minimal_model_at(c, ell), ell)
            assert projective == (ell if split else ell + 2), (c, ell)
            assert d.trace == (1 if split else -1)
            by_split[split] += 1
    assert all(min(by_split.values()) > 500 for by_split in seen.values()), seen


def twist(c, d):
    """The quadratic twist by d of c, as y^2 = x^3 - 27*d^2*c4*x - 54*d^3*c6."""
    inv = invariants(c)
    return CurveModel(0, 0, 0, -27 * d * d * inv.c4, -54 * d**3 * inv.c6)


def test_additive_types_at_large_primes():
    # Every Kodaira symbol of additive reduction at ell >= 5, where the
    # conductor exponent is 2, and Ogg's formula v(min disc) = f + m - 1 with
    # m the number of components of the special fibre of the Neron model.
    components = {"II": 1, "III": 2, "IV": 3, "I0*": 5, "IV*": 7, "III*": 8, "II*": 9}
    components |= {"I3*": 8, "I4*": 9, "I5*": 10}  # I_n* has n + 5
    cases = []
    for ell in (5, 7, 11, 13):
        for k, kodaira in ((1, "II"), (2, "IV"), (4, "IV*"), (5, "II*")):
            cases.append((CurveModel(0, 0, 0, 0, ell**k), ell, kodaira))
        for k, kodaira in ((1, "III"), (3, "III*")):
            cases.append((CurveModel(0, 0, 0, ell**k, 0), ell, kodaira))
        cases.append((CurveModel(0, 0, 0, ell**2, ell**3), ell, "I0*"))
    # a twist by ell of a curve with multiplicative reduction I_n at ell is I_n*
    cases += [(twist(E14, 7), 7, "I3*"), (twist(E15, 5), 5, "I4*"), (twist(E11, 11), 11, "I5*")]
    for c, ell, kodaira in cases:
        d = tate_local(c, ell)
        assert (d.red_type, d.kodaira, d.cond_exp, d.trace) == (
            ReductionType.ADDITIVE,
            kodaira,
            2,
            0,
        ), (c, ell)
        assert d.v_disc == d.cond_exp + components[kodaira] - 1, (c, ell)
    assert {k for _, _, k in cases} == set(components)


def test_additive_types():
    d27 = tate_local(E27, 3)
    assert (d27.red_type, d27.kodaira, d27.cond_exp, d27.v_disc) == (
        ReductionType.ADDITIVE,
        "IV*",
        3,
        9,
    )
    d32 = tate_local(E32, 2)
    assert (d32.kodaira, d32.cond_exp, d32.v_disc) == ("III", 5, 6)
    d49 = tate_local(E49, 7)
    assert d49.red_type is ReductionType.ADDITIVE
    assert d49.cond_exp == 2
    d64 = tate_local(E64, 2)
    assert (d64.kodaira, d64.cond_exp, d64.v_disc) == ("I2*", 6, 12)
    for d in (d27, d32, d49, d64):
        assert d.trace == 0


def test_conductor_canaries():
    expected = {
        E11: 11,
        E14: 14,
        E15: 15,
        E27: 27,
        E32: 32,
        E37: 37,
        E49: 49,
        E64: 64,
        E69: 69,
        E897: 897,
        E5077: 5077,
    }
    for c, n in expected.items():
        assert conductor(c) == n, c


def test_conductor_model_independent():
    from paritykit.weierstrass import Isomorphism, transform
    from fractions import Fraction

    rng = random.Random(107)
    for c in (E11, E27, E64, E69):
        for _ in range(5):
            iso = Isomorphism.of(
                Fraction(1, rng.choice([1, 2, 3])),
                rng.randrange(-5, 6),
                rng.randrange(-5, 6),
                rng.randrange(-5, 6),
            )
            assert conductor(transform(c, iso)) == conductor(c)


def test_ogg_relation_on_canaries():
    # v(min disc) = f + m - 1 with m the component count determined by the type
    components = {"I0": 1, "II": 1, "III": 2, "IV": 3, "I0*": 5, "IV*": 7, "III*": 8, "II*": 9}
    for c in (E11, E14, E15, E27, E32, E37, E49, E64, E69, E897):
        for d in bad_reduction_data(c):
            k = d.kodaira
            if k.startswith("I") and k[1:].rstrip("*").isdigit() and k not in ("I0", "I0*"):
                n = int(k[1:].rstrip("*"))
                m = n if not k.endswith("*") else n + 5
            else:
                m = components[k]
            assert d.v_disc == d.cond_exp + m - 1, (c, d)


def test_bad_reduction_data():
    data = bad_reduction_data(E69)
    assert [d.ell for d in data] == [3, 23]
    assert all(d.red_type.is_multiplicative for d in data)
    assert bad_reduction_data(E69)[0].v_disc == 2


def test_supersingular():
    assert is_supersingular(E69, 5)
    assert is_supersingular(E897, 5)
    assert not is_supersingular(E11, 5)
    assert is_supersingular(E11, 19)  # a_19 = 0
    assert 19 + 1 - count_points(E11, 19) == 0
    assert is_supersingular(E32, 3)


def test_supersingular_gates():
    with pytest.raises(ValueError, match="odd prime"):
        is_supersingular(E11, 2)
    with pytest.raises(ValueError, match="odd prime"):
        is_supersingular(E11, 9)
    for p in (-5, 1):
        with pytest.raises(ValueError, match="odd prime"):
            is_supersingular(E11, p)
    with pytest.raises(ValueError, match="good prime"):
        is_supersingular(E11, 11)


def test_euler_poly():
    assert euler_poly(tate_local(E11, 7)).coeffs == (1, 2, 7)
    assert euler_poly(tate_local(E11, 11)).coeffs == (1, -1)
    assert euler_poly(tate_local(E14, 2)).coeffs == (1, 1)
    assert euler_poly(tate_local(E27, 3)).coeffs == (1,)
    assert euler_poly(tate_local(E69, 13)).coeffs == (1, 6, 13)


def test_euler_poly_str():
    assert str(euler_poly(tate_local(E11, 7))) in ("1 + 2X + 7X^2", "7X^2 + 2X + 1")


def test_trace_respects_sign_convention():
    # split: a = +1 and ell - 1 points on the smooth part; spot-checked above,
    # here just the stored trace against euler_poly's linear coefficient
    for c, ell in ((E11, 7), (E69, 13), (E897, 2)):
        d = tate_local(c, ell)
        p = euler_poly(d)
        if d.red_type is ReductionType.GOOD:
            assert p.coeffs[1] == -d.trace
