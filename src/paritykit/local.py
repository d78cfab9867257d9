"""Local data at a prime: reduction type, conductor exponent, traces, Euler factors.

Reduction types and conductor exponents come from Tate's algorithm (Silverman,
"Advanced Topics", IV.9) on a model minimal at the prime: a table by v(disc)
from 5 up, and at 2 and 3 the whole algorithm on integer models, moved by
weierstrass._translate.  Split and nonsplit multiplicative reduction are told
apart by the Tate-curve criterion at every prime.  Traces at good primes come
from one exact point-counting kernel, _count_good, one model per call:
enumeration at 2 and 3, and from 5 up, on the short form y^2 = x^3 + A*x + B,
a closed form in O(log ell) for B = 0 mod ell (j = 1728; Ireland-Rosen 18.4;
Washington, "Elliptic Curves", 4.23), a pure-Python character sum in O(ell)
below _BSGS_MIN_ELL, and from there up Shanks-Mestre baby-step giant-step over
the curve and its quadratic twist in O(ell^(1/4)) group operations (Cohen, "A
Course in Computational Algebraic Number Theory", 7.4.3; the walk is described
at _killing_orders).  tate_local calls the kernel on the model minimal at ell,
and count_points reads tate_local's trace.

CurveData holds one curve's local data for one run: the model's invariants,
the bad-prime data, factored on first use, the conductor, the Sturm level's
exponents per p, and a dict of the good traces counted so far, which only its
methods write: bad and local() via Tate's algorithm, trace() for the Sturm
scan and its screen.  No setting caps the prime counted: tate_local and
everything built on it take ell only through is_prime, which refuses ell >=
2^64, and the scan stops at congruence._BOUND_CAP.  bad runs Tate's algorithm
on the primes that factor returned, which are proven below 2^64, so it checks
only is_prime's range, with the same error, rather than proving each prime
again.  tate_local reads the invariants from a CurveData, built for the call
when given a bare model; it computes them again only for a model minimal at
ell that it builds and, at 2 and 3, after moving the singular point to (0, 0).
A model is minimal and good at a prime that does not divide its discriminant,
so trace() counts there straight from the model, with no primality proof,
minimal model or Tate's algorithm.  _local() is local() for a prime the caller
has proven and serves such a prime the same way; parity reads it at p, proven
at the public boundary, and at primes from bad; local() and tate_local prove
ell first and raise ValueError on a non-prime.  Nothing outlives the
CurveData: this module, weierstrass.py and arith.py keep no memo.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple

from .arith import _IS_PRIME_BOUND, _valuation, factor, is_prime, jacobi
from .weierstrass import CurveModel, Invariants, _minimal_at, _translate, invariants

# Primes from here up are counted by Shanks-Mestre, below it by the character
# sum.  Mestre's theorem makes the walk end with one group order only for
# ell > 229, so this is the first prime it may serve.
_BSGS_MIN_ELL = 230


class ReductionType(enum.Enum):
    GOOD = "Good"
    SPLIT_MULTIPLICATIVE = "SplitMultiplicative"
    NONSPLIT_MULTIPLICATIVE = "NonsplitMultiplicative"
    ADDITIVE = "Additive"

    @property
    def is_multiplicative(self) -> bool:
        return self in (ReductionType.SPLIT_MULTIPLICATIVE, ReductionType.NONSPLIT_MULTIPLICATIVE)

    def __str__(self) -> str:
        return self.value


class LocalData(namedtuple("LocalData", "ell red_type cond_exp v_disc trace kodaira")):
    """Local invariants of a curve at one prime.

    ell, cond_exp, v_disc, trace: int; red_type: ReductionType; kodaira: str.
    trace follows the usual convention: the Frobenius trace at good primes,
    +1/-1 at split/nonsplit multiplicative primes, 0 at additive primes.
    kodaira is a diagnostic string ("I0", "I5", "III*", ...).
    """

    __slots__ = ()

    def mod_p_cond_exp(self, p: int) -> int:
        """Conductor exponent at ell of E[p], for an odd prime p != ell.

        Wild inertia is an ell-group and the kernel of GL2(Z_p) -> GL2(F_p) is
        pro-p, so E[p] and T_pE share their Swan conductor: f(E[p]) = f(E) -
        dim E[p]^I, for inertia I at ell.  Good: 0 (Neron-Ogg-Shafarevich).
        Multiplicative, a Tate curve up to an unramified twist: I acts through
        the p-th roots of q, v(q) = v_ell(min disc), trivially iff p | v, else
        as a unipotent fixing a line.  Potentially multiplicative additive: I
        acts as a ramified quadratic character times a unipotent, fixing
        nothing.  Potentially good additive: I acts through a finite G in
        SL2(F_p), #G | 24, whose only involution, -1, fixes nothing; so G fixes
        a line only if it is cyclic of order 3 and p = 3, where it is unipotent
        (Serre, Invent. Math. 15, 1972).  At ell >= 5, #G = 12 / gcd(12,
        v_ell(min disc)) is 3 for Kodaira IV and IV*.  At ell = 2, #G = 3 iff
        f(E) = 2: an odd G is tame, and f(E) = 2 leaves T_pE tame and rules out
        potentially multiplicative reduction, whose character at 2 is wild.
        """
        if self.ell == p:
            raise ValueError("the conductor of E[p] is computed at ell != p only")
        if self.red_type is ReductionType.GOOD:
            return 0
        if self.red_type.is_multiplicative:
            return 0 if self.v_disc % p == 0 else 1
        order3 = self.kodaira in ("IV", "IV*") if self.ell >= 5 else self.ell == 2 and self.cond_exp == 2
        return self.cond_exp - 1 if p == 3 and order3 else self.cond_exp


class EulerPoly(namedtuple("EulerPoly", "coeffs")):
    """Euler factor P_ell(X) as coefficients in ascending degree: coeffs, a tuple of ints."""

    __slots__ = ()

    def __str__(self) -> str:
        parts = []
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            if i == 0:
                parts.append(str(a))
            else:
                x = "X" if i == 1 else "X^%d" % i
                parts.append(("%dX" % a).replace("1X", x) if abs(a) == 1 else "%d%s" % (a, x))
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def count_points(c: CurveModel, ell: int) -> int:
    """#E(F_ell) including the point at infinity; requires good reduction at ell."""
    d = tate_local(c, ell)
    if d.red_type is not ReductionType.GOOD:
        raise ValueError("bad reduction at %d; use tate_local for local data" % ell)
    return ell + 1 - d.trace


def _short_form(inv: Invariants) -> tuple[int, int]:
    # y^2 = x^3 + A*x + B with A = -27*c4, B = -54*c6 is isomorphic to the
    # model over F_ell for every prime ell >= 5.
    return -27 * inv.c4, -54 * inv.c6


def _count_good(ell: int, m: CurveModel, inv: Invariants) -> int:
    # #E(F_ell) of the model m, with invariants inv, good at the prime ell.  At
    # 2 and 3 every point is counted; from 5 up the short form takes the
    # j = 1728 formula, the character sum or Shanks-Mestre.
    if ell < 5:
        n = 1 + sum(
            (y * y + m.a1 * x * y + m.a3 * y - x**3 - m.a2 * x * x - m.a4 * x - m.a6) % ell == 0
            for x in range(ell)
            for y in range(ell)
        )
    else:
        a, b = _short_form(inv)
        a, b = a % ell, b % ell
        if b == 0:
            n = ell + 1 - _trace_j1728(a, ell)
        elif ell >= _BSGS_MIN_ELL:
            n = _shanks_mestre(a, b, ell)
        else:
            n = _character_sum(a, b, ell)
    if (ell + 1 - n) ** 2 > 4 * ell:
        raise ArithmeticError("Hasse bound violated at %d (internal error)" % ell)
    return n


def _trace_j1728(a: int, ell: int) -> int:
    # a_ell of y^2 = x^3 + a*x, a != 0 mod ell: 0 for ell = 3 mod 4, else
    # chi*pi + conj(chi*pi) for ell = pi*conj(pi), pi = u + v*i primary (u odd,
    # v even of either sign, u + v = 1 mod 4) and chi = conj((-a/pi)_4).  As
    # Z[i]/pi = F_ell sends i to -u/v, e = (-a)^((ell-1)/4) = 1, -1, -u/v, u/v
    # gives chi = 1, -1, -i, i.
    if ell % 4 == 3:
        return 0
    c = next(c for c in range(2, ell) if pow(c, (ell - 1) // 2, ell) == ell - 1)
    # Cornacchia: Euclid from a square root of -1 until the remainder < sqrt(ell)
    r0, r1 = ell, pow(c, (ell - 1) // 4, ell)
    while r1 * r1 > ell:
        r0, r1 = r1, r0 % r1
    u, v = r1, math.isqrt(ell - r1 * r1)
    if v % 2:
        u, v = v, u
    if (u + v) % 4 != 1:
        u = -u
    e = pow(-a, (ell - 1) // 4, ell)
    if e in (1, ell - 1):
        return 2 * u if e == 1 else -2 * u
    return -2 * v if e * v % ell == u % ell else 2 * v


def _character_sum(a: int, b: int, ell: int) -> int:
    # #E = 1 + sum_x #{y : y^2 = x^3 + a*x + b}, read off a table of the number
    # of square roots mod ell: 1 at 0, 2 at each nonzero square, 0 elsewhere.
    roots = bytearray(ell)
    for y in range(1, ell // 2 + 1):
        roots[y * y % ell] = 2
    roots[0] = 1
    return 1 + sum([roots[((x * x + a) * x + b) % ell] for x in range(ell)])


def _shanks_mestre(a: int, b: int, ell: int) -> int:
    # For c = f(x0) != 0 the point (c*x0, c^2) lies on y^2 = x^3 + a*c^2*x + b*c^3,
    # which is E when c is a square mod ell and its quadratic twist otherwise.
    # A twist order m means #E = 2*ell + 2 - m.  Each point leaves the orders in
    # the Hasse interval that kill it; intersect until one is left.  For
    # ell > 229 Mestre's theorem guarantees one is left before x0 runs out.
    r = math.isqrt(4 * ell)  # floor(2*sqrt(ell)), the Hasse half-width
    lo, hi = ell + 1 - r, ell + 1 + r
    left = None
    for x0 in range(ell):
        c = ((x0 * x0 + a) * x0 + b) % ell
        if c == 0:
            continue
        c2 = c * c % ell
        orders = _killing_orders((c * x0 % ell, c2), c2 * a % ell, ell, lo, hi)
        if pow(c, (ell - 1) // 2, ell) != 1:
            orders = {2 * ell + 2 - n for n in orders}
        left = orders if left is None else left & orders
        if len(left) <= 1:
            break
    if left is None or len(left) != 1:
        raise ArithmeticError("no unique group order at %d (internal error)" % ell)
    return left.pop()


def _killing_orders(pt: tuple[int, int], a: int, ell: int, lo: int, hi: int) -> set[int]:
    # Every n in [lo, hi] with n*pt = O.  Baby steps j*pt for 0 <= j <= s, keyed
    # by x with O under None; giant centres c = m*(2s+1), whose c - s .. c + s
    # tile [lo, hi].  A baby with the x of c*pt gives n = c - j when the y agree
    # and n = c + j when they are opposite (both for y = 0 and for O).  So the
    # only scalar multiplication is by m, near ell/(2s+1).
    s = math.isqrt((hi - lo) // 2) + 1
    babies: dict = {}
    q = None
    for j in range(s + 1):
        x, y = q or (None, None)
        babies.setdefault(x, []).append((j, y))
        last, q = q, _add(q, pt, a, ell)
    width = 2 * s + 1
    step = _add(q, last, a, ell)  # (s+1)*pt + s*pt
    m = -((s - lo) // width)  # ceil((lo - s) / width)
    q = _mul(m, step, a, ell)
    found = set()
    for c in range(m * width, hi + s + 1, width):
        x, y = q or (None, None)
        neg = None if q is None else -y % ell
        for j, yj in babies.get(x, ()):
            if yj == y:
                found.add(c - j)
            if yj == neg:
                found.add(c + j)
        q = _add(q, step, a, ell)
    return {n for n in found if lo <= n <= hi}


def _add(p, q, a: int, ell: int):
    # Affine group law on y^2 = x^3 + a*x + b over F_ell; None is O.
    if p is None:
        return q
    if q is None:
        return p
    x1, y1 = p
    x2, y2 = q
    if x1 == x2:
        if (y1 + y2) % ell == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, ell) % ell
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, ell) % ell
    x3 = (lam * lam - x1 - x2) % ell
    return x3, (lam * (x1 - x3) - y1) % ell


def _mul(k: int, p, a: int, ell: int):
    out = None
    while k:
        if k & 1:
            out = _add(out, p, a, ell)
        k >>= 1
        if k:
            p = _add(p, p, a, ell)
    return out


def _singular_point(m: CurveModel, p: int) -> tuple[int, int]:
    # The singular point of a bad Weierstrass reduction is affine and rational.
    for x in range(p):
        for y in range(p):
            on = (y * y + m.a1 * x * y + m.a3 * y - x**3 - m.a2 * x * x - m.a4 * x - m.a6) % p
            fy = (2 * y + m.a1 * x + m.a3) % p
            fx = (m.a1 * y - 3 * x * x - 2 * m.a2 * x - m.a4) % p
            if on == 0 and fy == 0 and fx == 0:
                return x, y
    raise ArithmeticError("no singular point found mod %d (internal error)" % p)


def _double_root(qa: int, qb: int, qc: int, p: int) -> int | None:
    # The repeated root mod p of qa*T^2 + qb*T + qc, p not dividing qa, or None
    # when the quadratic is separable mod p.
    if (qb if p == 2 else qb * qb - 4 * qa * qc) % p:
        return None
    return next(t for t in range(p) if (qa * t * t + qb * t + qc) % p == 0)


# Kodaira symbol of additive reduction at ell >= 5 by v_ell(min disc), for
# every type but I_n*, which has v_ell(c4) = 2 and v_ell(min disc) = n + 6
# (Tate's algorithm; Silverman, "Advanced Topics in the Arithmetic of
# Elliptic Curves", IV.9).
_KODAIRA = {2: "II", 3: "III", 4: "IV", 6: "I0*", 8: "IV*", 9: "III*", 10: "II*"}


def _additive_type_large(inv: Invariants, ell: int, n: int) -> str:
    if n >= 7 and _valuation(inv.c4, ell) == 2:
        return "I%d*" % (n - 6)
    if n not in _KODAIRA:
        raise ArithmeticError("impossible additive valuation %d at %d (internal error)" % (n, ell))
    return _KODAIRA[n]


def _normalize_depths(c: CurveModel, p: int) -> CurveModel:
    # Reach p | a1, a2; p^2 | a3, a4; p^3 | a6 by the translation (0, s, t),
    # given the singular point at (0, 0), p^2 | a6 and p^3 | b6, b8, so that
    # p | b2 (additive) and p^2 | b4 (4*b8 = b2*b6 - b4^2).  At 2, a1 is even
    # by b2, s = a2 mod 2 clears a2, b6 and b8 give 4 | a3, a4, and t = 2*e,
    # e = (a6/4) mod 2, leaves them and makes t^2 = a6 (mod 8).  At 3, s = a1
    # mod 3 clears a1 and a2 (b2 = a1^2 + a2 mod 3), and t = a3 = -a3/2 (mod 9)
    # as 3 | a3: 9 | 3*a3, 9 | a4 - a1*a3 by b4, 27 | a6 - 2*a3^2 by b6.
    s, t = (c.a2 % 2, 2 * (c.a6 // 4 % 2)) if p == 2 else (c.a1 % 3, c.a3)
    c = CurveModel(*_translate(c.coefficients(), 0, s, t))
    if c.a1 % p or c.a2 % p or c.a3 % p**2 or c.a4 % p**2 or c.a6 % p**3:
        raise ArithmeticError("depth normalization failed mod %d (internal error)" % p)
    return c


def _cubic_root_multiplicities(b: int, c: int, d: int, p: int) -> dict[int, int]:
    # Multiplicities of the rational roots of T^3 + bT^2 + cT + d mod p.
    # Derivative tests misbehave in characteristic 2 and 3, so compare against
    # (T-t)^2 (T-u) with u forced by the T^2 coefficient.  Repeated roots of a
    # cubic over F_p are rational, so this sees every repetition.
    out = {}
    for t in range(p):
        if (t**3 + b * t * t + c * t + d) % p:
            continue
        u = (-b - 2 * t) % p
        if (c - (t * t + 2 * t * u)) % p == 0 and (d + t * t * u) % p == 0:
            out[t] = 3 if (u - t) % p == 0 else 2
        else:
            out[t] = 1
    return out


def _exact_div(n: int, d: int) -> int:
    q, r = divmod(n, d)
    if r:
        raise ArithmeticError("inexact division %d / %d (internal error)" % (n, d))
    return q


def _star_loop(c: CurveModel, p: int, n: int) -> tuple[str, int]:
    # I_k* chain: probe quadratics of increasing depth, in y and then in x,
    # until one is separable; k counts the probes.
    mx, my = p * p, p * p
    for k in range(1, 2 * n + 17, 2):
        y0 = _double_root(1, _exact_div(c.a3, my), -_exact_div(c.a6, mx * my), p)
        if y0 is None:
            return "I%d*" % k, n - k - 4
        c = CurveModel(*_translate(c.coefficients(), 0, 0, my * y0))
        my *= p
        a4t, a6t = _exact_div(c.a4, p * mx), _exact_div(c.a6, mx * my)
        x0 = _double_root(_exact_div(c.a2, p), a4t, a6t, p)
        if x0 is None:
            return "I%d*" % (k + 1), n - k - 5
        c = CurveModel(*_translate(c.coefficients(), mx * x0, 0, 0))
        mx *= p
    raise ArithmeticError("runaway I_k* chain mod %d (internal error)" % p)


def _additive_type_small(m: CurveModel, inv: Invariants, p: int, n: int) -> tuple[str, int]:
    x0, y0 = _singular_point(m, p)
    c = CurveModel(*_translate(m.coefficients(), x0, 0, y0))
    if _valuation(c.a6, p) < 2:
        return "II", n
    inv = inv if (x0, y0) == (0, 0) else invariants(c)
    if _valuation(inv.b8, p) < 3:
        return "III", n - 1
    if _valuation(inv.b6, p) < 3:
        return "IV", n - 2
    c = _normalize_depths(c, p)
    mults = _cubic_root_multiplicities(
        _exact_div(c.a2, p), _exact_div(c.a4, p**2), _exact_div(c.a6, p**3), p
    )
    worst = max(mults.values(), default=1)
    if worst == 1:
        return "I0*", n - 4
    (root,) = (t for t, k in mults.items() if k == worst)
    c = CurveModel(*_translate(c.coefficients(), p * root, 0, 0))
    if worst == 2:
        return _star_loop(c, p, n)
    a3t, a6t = _exact_div(c.a3, p**2), _exact_div(c.a6, p**4)
    y1 = _double_root(1, a3t, -a6t, p)
    if y1 is None:
        return "IV*", n - 6
    c = CurveModel(*_translate(c.coefficients(), 0, 0, p * p * y1))
    if _valuation(c.a4, p) < 4:
        return "III*", n - 7
    if _valuation(c.a6, p) < 6:
        return "II*", n - 8
    raise ArithmeticError("model not minimal at %d after reduction (internal error)" % p)


def _require_prime(ell) -> None:
    if not isinstance(ell, int) or ell < 2 or not is_prime(ell):
        raise ValueError("%r is not a prime" % (ell,))


def tate_local(c: CurveModel | CurveData, ell: int) -> LocalData:
    """Reduction type, conductor exponent, v_ell of the minimal discriminant, trace."""
    _require_prime(ell)
    return _tate_local(CurveData.of(c), ell)


def _tate_local(e: CurveData, ell: int) -> LocalData:
    # tate_local for a prime ell below 2^64 that the caller has proven.
    m, inv = _minimal_at(e.model, e.inv, ell)
    n = _valuation(inv.disc, ell)
    if n == 0:
        trace = ell + 1 - _count_good(ell, m, inv)
        return LocalData(ell, ReductionType.GOOD, 0, 0, trace, "I0")
    if inv.c4 % ell != 0:
        # Tate-curve criterion: split iff -c6 is a square in Q_ell (Silverman,
        # "Advanced Topics", V.5.3; c4 and c6 are units here and c4 a square),
        # which at ell = 2 is -c6 = 1 (mod 8).
        split = -inv.c6 % 8 == 1 if ell == 2 else jacobi(-inv.c6, ell) == 1
        red = ReductionType.SPLIT_MULTIPLICATIVE if split else ReductionType.NONSPLIT_MULTIPLICATIVE
        return LocalData(ell, red, 1, n, 1 if split else -1, "I%d" % n)
    if ell >= 5:
        kodaira, f = _additive_type_large(inv, ell, n), 2
    else:
        kodaira, f = _additive_type_small(m, inv, ell, n)
    if f < 2:
        raise ArithmeticError("additive exponent below 2 at %d (internal error)" % ell)
    return LocalData(ell, ReductionType.ADDITIVE, f, n, 0, kodaira)


class CurveData:
    """Local data of one curve for one run, each piece computed at most once.

    bad maps each prime of bad reduction, ascending, to its LocalData; the
    discriminant is factored on first use.  traces maps ell to a_ell at the
    good primes seen so far, whether counted by trace() or by local().
    level_exponents(p) gives the conductor exponents that the Sturm level at
    p reads, worked out once per p from bad, so that a scan pays for them per
    curve rather than per pair.
    """

    def __init__(self, model: CurveModel) -> None:
        self.model = model
        self.inv = invariants(model)
        if self.inv.disc == 0:
            raise ValueError("singular model: discriminant is zero")
        self.traces: dict[int, int] = {}
        self._bad: dict[int, LocalData] | None = None
        self._level_exponents: dict[int, tuple[dict[int, int], dict[int, int]]] = {}

    @staticmethod
    def of(c: CurveModel | CurveData) -> CurveData:
        return c if isinstance(c, CurveData) else CurveData(c)

    @property
    def bad(self) -> dict[int, LocalData]:
        if self._bad is None:
            bad = {}
            for q, _ in factor(self.inv.disc):
                if q in self.traces:
                    continue  # a good prime whose trace is stored
                if q >= _IS_PRIME_BOUND:
                    is_prime(q)  # raises its range error; below 2^64 factor has proven q prime
                d = _tate_local(self, q)
                if d.red_type is ReductionType.GOOD:
                    self.traces[q] = d.trace
                else:
                    bad[q] = d
            self._bad = bad
        return self._bad

    @property
    def conductor(self) -> int:
        return math.prod(ell**d.cond_exp for ell, d in self.bad.items())

    def level_exponents(self, p: int) -> tuple[dict[int, int], dict[int, int]]:
        """{ell: cond_exp} at the bad primes, and the same without each ell != p where E[p] is unramified.

        The second dict leaves out the primes ell != p with
        LocalData.mod_p_cond_exp(p) == 0.  Both are kept per p and shared: read only.
        """
        if p not in self._level_exponents:
            full = {ell: d.cond_exp for ell, d in self.bad.items()}
            reduced = {ell: e for ell, e in full.items() if ell == p or self.bad[ell].mod_p_cond_exp(p)}
            self._level_exponents[p] = full, reduced
        return self._level_exponents[p]

    def local(self, ell: int) -> LocalData:
        """tate_local at ell, served from the traces and bad-prime data when known."""
        _require_prime(ell)
        return self._local(ell)

    def _local(self, ell: int) -> LocalData:
        """local() at a prime ell below 2^64 that the caller has proven, such as p or one from bad.

        At a prime that does not divide the model's discriminant the model is
        minimal and good, so trace() counts a_ell straight from it, with no
        primality proof, minimal model, valuation or Tate step.
        """
        if ell in self.traces or self.inv.disc % ell:
            return LocalData(ell, ReductionType.GOOD, 0, 0, self.trace(ell), "I0")
        if self._bad is not None and ell in self._bad:
            return self._bad[ell]
        d = _tate_local(self, ell)
        if d.red_type is ReductionType.GOOD:
            self.traces[ell] = d.trace
        return d

    def trace(self, ell: int, counted: int | None = None) -> int:
        """a_ell, counted from the model unless stored; for the Sturm scan and congruence.screen_residues.

        ell must be a prime good for the curve, not dividing the model's
        discriminant unless the bad-prime data stored its trace; nothing here
        checks either.  counted is a_ell as the Sturm scan's helper process sent
        it, counting from the top of the scan down; it is stored in place of a
        count.
        """
        if ell not in self.traces:
            if counted is None:
                counted = ell + 1 - _count_good(ell, self.model, self.inv)
            self.traces[ell] = counted
        return self.traces[ell]


def conductor(c: CurveModel) -> int:
    """Product over bad primes of ell^cond_exp."""
    return CurveData(c).conductor


def bad_reduction_data(c: CurveModel) -> list[LocalData]:
    """LocalData at every prime of bad reduction, ascending."""
    return list(CurveData(c).bad.values())


def is_supersingular(c: CurveModel | CurveData, p: int) -> bool:
    """True when a_p(E) = 0 exactly (the strict form, applied at every odd p)."""
    if not isinstance(p, int) or p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime, got %r" % (p,))
    d = CurveData.of(c)._local(p)
    if d.red_type is not ReductionType.GOOD:
        raise ValueError("p must be a good prime")
    return d.trace == 0


def euler_poly(d: LocalData) -> EulerPoly:
    """P_ell(X): 1 - a*X + ell*X^2 good, 1 -+ X multiplicative, 1 additive."""
    if d.red_type is ReductionType.GOOD:
        return EulerPoly((1, -d.trace, d.ell))
    if d.red_type.is_multiplicative:
        return EulerPoly((1, -d.trace))
    return EulerPoly((1,))
