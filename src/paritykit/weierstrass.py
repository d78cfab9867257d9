"""Integral Weierstrass models: invariants, coordinate changes, minimal models.

_translate holds the formulas of x = x' + r, y = y' + s*x' + t: transform
applies them to Fractions, Tate's algorithm at 2 and 3 (local.py) to integers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arith import _valuation, factor, is_prime


@dataclass(frozen=True)
class CurveModel:
    """Integral Weierstrass model y^2 + a1*xy + a3*y = x^3 + a2*x^2 + a4*x + a6."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def coefficients(self) -> list[int]:
        return [self.a1, self.a2, self.a3, self.a4, self.a6]

    def __str__(self) -> str:
        return "[%d,%d,%d,%d,%d]" % tuple(self.coefficients())


_CURVE_RE = re.compile(r"^\[\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*\]$")


def parse_curve(text: str) -> CurveModel:
    """Parse a coefficient literal like [1,0,1,-1,-1] (whitespace allowed)."""
    m = _CURVE_RE.match(text.strip())
    if not m:
        raise ValueError("malformed curve literal: %r" % text)
    return CurveModel(*(int(g) for g in m.groups()))


@dataclass(frozen=True)
class Invariants:
    b2: int
    b4: int
    b6: int
    b8: int
    c4: int
    c6: int
    disc: int
    j_num: int
    j_den: int


def invariants(c: CurveModel) -> Invariants:
    """b-, c-invariants, discriminant and j-invariant (as a reduced fraction)."""
    a1, a2, a3, a4, a6 = c.coefficients()
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    if 4 * b8 != b2 * b6 - b4 * b4 or c4**3 - c6 * c6 != 1728 * disc:
        raise ArithmeticError("invariant identities violated (internal error)")
    if disc == 0:
        j_num, j_den = 0, 0
    else:
        g = gcd(c4**3, disc)
        j_num, j_den = c4**3 // g, disc // g
        if j_den < 0:
            j_num, j_den = -j_num, -j_den
    return Invariants(b2, b4, b6, b8, c4, c6, disc, j_num, j_den)


def discriminant(c: CurveModel) -> int:
    return invariants(c).disc


@dataclass(frozen=True)
class Isomorphism:
    """Change of variables x = u^2 x' + r, y = u^3 y' + s u^2 x' + t."""

    u: Fraction
    r: Fraction
    s: Fraction
    t: Fraction

    @staticmethod
    def of(u, r=0, s=0, t=0) -> "Isomorphism":
        return Isomorphism(Fraction(u), Fraction(r), Fraction(s), Fraction(t))

    def inverse(self) -> "Isomorphism":
        u, r, s, t = self.u, self.r, self.s, self.t
        return Isomorphism(1 / u, -r / u**2, -s / u, (r * s - t) / u**3)

    def is_identity(self) -> bool:
        return (self.u, self.r, self.s, self.t) == (1, 0, 0, 0)


def _translate(a, r, s, t) -> tuple:
    # (a1, a2, a3, a4, a6) after x = x' + r, y = y' + s*x' + t, on ints or Fractions.
    a1, a2, a3, a4, a6 = a
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    )


def transform(c: CurveModel, iso: Isomorphism) -> CurveModel:
    """Apply a change of variables; the result must again be integral."""
    if iso.u == 0:
        raise ValueError("isomorphism scale factor u must be nonzero")
    a1, a2, a3, a4, a6 = _translate([Fraction(v) for v in c.coefficients()], iso.r, iso.s, iso.t)
    u = iso.u
    new = {"a1": a1 / u, "a2": a2 / u**2, "a3": a3 / u**3, "a4": a4 / u**4, "a6": a6 / u**6}
    for name, value in new.items():
        if value.denominator != 1:
            raise ValueError("transformation yields non-integral %s = %s" % (name, value))
    return CurveModel(*(int(v) for v in new.values()))


def _kraus_ok_at_2(c4: int, c6: int) -> bool:
    if c6 % 4 == 3:
        return True
    return c4 % 16 == 0 and c6 % 32 in (0, 8)


def _kraus_ok_at_3(c6: int) -> bool:
    return _valuation(c6, 3) != 2


def _model_from_c_invariants(c4: int, c6: int) -> CurveModel:
    # Kraus' construction: b2 is determined mod 12 by c6.
    b2 = (-c6) % 12
    if b2 > 6:
        b2 -= 12
    if (b2 * b2 - c4) % 24 or (-(b2**3) + 36 * b2 * ((b2 * b2 - c4) // 24) - c6) % 216:
        raise ArithmeticError("c-invariants fail Kraus integrality (internal error)")
    b4 = (b2 * b2 - c4) // 24
    b6 = (-(b2**3) + 36 * b2 * b4 - c6) // 216
    a1 = b2 % 2
    a2 = (b2 - a1) // 4
    a3 = b6 % 2
    a4 = (b4 - a1 * a3) // 2
    a6 = (b6 - a3) // 4
    return CurveModel(a1, a2, a3, a4, a6)


def _scale_exponent_at(c4: int, c6: int, disc: int, q: int) -> int:
    # Largest e with q^(4e) | c4, q^(6e) | c6, q^(12e) | disc such that the
    # scaled-down invariants are still realizable (Kraus conditions at 2, 3).
    e = min(_valuation(c4, q) // 4, _valuation(c6, q) // 6, _valuation(disc, q) // 12)
    while e > 0:
        u4, u6 = q ** (4 * e), q ** (6 * e)
        ok = True
        if q == 2:
            ok = _kraus_ok_at_2(c4 // u4, c6 // u6)
        elif q == 3:
            ok = _kraus_ok_at_3(c6 // u6)
        if ok:
            break
        e -= 1
    return e


def _solve_isomorphism(c: CurveModel, target: CurveModel, u: int) -> Isomorphism:
    for uu in (Fraction(u), Fraction(-u)):
        s = (uu * target.a1 - c.a1) / 2
        r = (uu**2 * target.a2 - c.a2 + s * c.a1 + s * s) / 3
        t = (uu**3 * target.a3 - c.a3 - r * c.a1) / 2
        iso = Isomorphism(uu, r, s, t)
        try:
            if transform(c, iso) == target:
                return iso
        except ValueError:
            pass
    raise ArithmeticError("no isomorphism onto computed minimal model (internal error)")


def minimal_model(c: CurveModel) -> tuple[CurveModel, Isomorphism]:
    """Global minimal model (Laska-Kraus-Connell) and the transformation onto it."""
    inv = invariants(c)
    if inv.disc == 0:
        raise ValueError("singular model: discriminant is zero")
    u = 1
    # q scales out only if q^4 | c4 and q^6 | c6
    candidates = {2, 3} | {q for q, _ in factor(gcd(inv.c4, inv.c6))}
    for q in sorted(candidates):
        u *= q ** _scale_exponent_at(inv.c4, inv.c6, inv.disc, q)
    target = _model_from_c_invariants(inv.c4 // u**4, inv.c6 // u**6)
    if invariants(target).disc != inv.disc // u**12:
        raise ArithmeticError("minimal model reconstruction mismatch (internal error)")
    if target == c:
        return c, Isomorphism.of(1)
    return target, _solve_isomorphism(c, target, u)


def minimal_model_at(c: CurveModel, ell: int) -> CurveModel:
    """A model of c minimal at the single prime ell (other primes untouched).

    Raises ValueError when ell is not a prime.
    """
    if not isinstance(ell, int) or ell < 2 or not is_prime(ell):
        raise ValueError("%r is not a prime" % (ell,))
    inv = invariants(c)
    if inv.disc == 0:
        raise ValueError("singular model: discriminant is zero")
    return _minimal_at(c, inv, ell)[0]


def _minimal_at(c: CurveModel, inv: Invariants, ell: int) -> tuple[CurveModel, Invariants]:
    # minimal_model_at for a nonsingular c with invariants inv and a prime ell,
    # with the invariants of the model it returns.
    e = _scale_exponent_at(inv.c4, inv.c6, inv.disc, ell)
    if e == 0:
        return c, inv
    u = ell**e
    m = _model_from_c_invariants(inv.c4 // u**4, inv.c6 // u**6)
    return m, invariants(m)
