"""One-parameter family of curves sharing their mod-3 representation with y^2 = x^3 - Dx."""

from __future__ import annotations

from .weierstrass import CurveModel, discriminant


def base_curve(D: int) -> CurveModel:
    """y^2 = x^3 - Dx."""
    if D < 1:
        raise ValueError("D must be a positive integer, got %d" % D)
    return CurveModel(0, 0, 0, -D, 0)


def member(D: int, t: int) -> CurveModel:
    """The twist-family specialization at t; member(D, 0) is the base curve."""
    if D < 1:
        raise ValueError("D must be a positive integer, got %d" % D)
    a4 = D * (27 * D * D * t**4 - 18 * D * t * t - 1)
    a6 = 4 * D * D * t * (27 * D * D * t**4 + 1)
    c = CurveModel(0, 0, 0, a4, a6)
    if discriminant(c) == 0:
        raise ValueError("singular specialization at (D=%d, t=%d)" % (D, t))
    return c
