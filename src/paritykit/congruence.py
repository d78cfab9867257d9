"""Trace-congruence verification between two curves modulo an odd prime.

Two curves whose mod-p representations are isomorphic have congruent traces of
Frobenius away from bad primes.  The converse direction is certified up to a
Sturm bound: weight-2 forms on Gamma_0(L) that agree at every prime up to the
bound agree everywhere.  A Verified result therefore certifies congruence of
the semisimplified representations; irreducibility is not checked here.

The scan walks arith._PRIMES and branches only on each curve's reduction
type at ell, read off its bad-prime data: ell = p and primes bad for both
curves are skipped; at a prime good for both the traces are compared; at a
prime bad for one curve the good trace is compared with +-(ell + 1) if it is
multiplicative and with 0 if additive, where E[p] is ramified for every odd p
(LocalData.mod_p_cond_exp) and a clean scan ends Inconclusive.  Inertia of
order 3 is unipotent on E[3] and leaves the semisimplified trace unknown, so
such a prime is not compared.
Each curve is read through a local.CurveData, built here for a bare model; a
caller that passes its own keeps the bad primes and every trace counted for
later steps of the run.  CurveData.trace serves each good trace and checks the
counting ceiling, read once per call, even when the trace is stored.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from math import prod
from typing import NamedTuple

from .arith import _PRIMES, factor, is_prime
from .errors import ComputationLimitError
from .local import CurveData, max_counting_prime
from .weierstrass import CurveModel

# A full scan costs roughly the sum of all primes below the bound in counting
# work, so bounds past a few tens of thousands stop being interactive.  The
# scan walks arith._PRIMES, so the cap must stay within arith._TRIAL_LIMIT.
_BOUND_CAP = 20000


class CongruenceStatus(enum.Enum):
    VERIFIED = "Verified"
    FAILED = "Failed"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self) -> str:
        return self.value


class CongruenceVerdict(NamedTuple):
    status: CongruenceStatus
    level: int | None
    bound: int | None
    checked_primes: int
    witness: tuple[int, int, int] | None
    caveat: str


def sturm_bound(level: int) -> int:
    """ceil(index / 6) where index = level * prod(1 + 1/ell) over ell | level."""
    if level < 1:
        raise ValueError("level must be a positive integer")
    return _sturm(dict(factor(level)))


def _sturm(level: dict[int, int]) -> int:
    # Sturm bound of a level given as {prime: exponent}, exponents >= 1.
    index = 1
    for ell, e in level.items():
        index *= ell ** (e - 1) * (ell + 1)
    return -(-index // 6)


def _sturm_level(bad1: dict, bad2: dict, p: int, reduced: bool) -> tuple[int, int]:
    """(level, Sturm bound) for lcm(N1, N2, p^2), read off the bad-prime data.

    The reduced level drops the primes ell != p where E[p] is unramified
    (LocalData.mod_p_cond_exp is 0: multiplicative with p | v_ell(min disc))
    and keeps everything else.
    """
    level = {p: 2}
    for d in (*bad1.values(), *bad2.values()):
        if reduced and d.ell != p and d.mod_p_cond_exp(p) == 0:
            continue
        level[d.ell] = max(level.get(d.ell, 0), d.cond_exp)
    return prod(ell**e for ell, e in level.items()), _sturm(level)


def check_congruence(c1: CurveModel | CurveData, c2: CurveModel | CurveData, p: int) -> CongruenceVerdict:
    """Compare a_ell(E1) and a_ell(E2) mod p for all primes up to a Sturm bound.

    The bound is taken at level lcm(N1, N2, p^2) when that is small enough to
    scan; otherwise at the smaller level obtained by discarding multiplicative
    primes whose mod-p representation is unramified.  Primes bad for both
    curves and ell = p are skipped.
    """
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    e1, e2 = CurveData.of(c1), CurveData.of(c2)
    bad1, bad2 = e1.bad, e2.bad
    notes = [
        "Verified certifies congruence of semisimplified mod-%d representations "
        "up to the stated bound; primes bad for both curves and ell = %d are skipped."
        % (p, p)
    ]
    level, bound = _sturm_level(bad1, bad2, p, reduced=False)
    complete = True
    if bound > _BOUND_CAP:
        level, bound = _sturm_level(bad1, bad2, p, reduced=True)
        notes.append(
            "Bound taken at the reduced level %d (multiplicative primes with "
            "p | v_ell(min disc) discarded) because the full level gives an "
            "impractical bound." % level
        )
        if bound > _BOUND_CAP:
            # A single mismatch disproves the congruence without any Sturm
            # bound, so scan up to the cap anyway; only Verified needs the
            # full bound.
            complete = False
            notes.append(
                "Sturm bound %d exceeds the scan cap %d; scanned primes up to "
                "the cap for mismatches only." % (bound, _BOUND_CAP)
            )
    checked = 0
    structural = None
    limit = bound if complete else _BOUND_CAP
    ceiling = max_counting_prime()
    for ell in _PRIMES[: bisect_right(_PRIMES, limit)]:
        d1, d2 = bad1.get(ell), bad2.get(ell)
        if ell == p or d1 and d2:
            continue
        try:
            a1 = None if d1 else e1.trace(ell, ceiling)
            a2 = None if d2 else e2.trace(ell, ceiling)
        except ComputationLimitError as exc:
            notes.append("Scan aborted at %d: %s." % (ell, exc))
            return CongruenceVerdict(
                CongruenceStatus.INCONCLUSIVE, level, bound, checked, None, " ".join(notes)
            )
        if d1 or d2:
            bad = d1 or d2
            if bad.red_type.is_multiplicative:
                # Compare against the Frobenius trace of the unramified
                # semisimplified representation at a multiplicative prime: +-(ell + 1).
                b = bad.trace * (ell + 1)
            else:
                structural = structural or ell
                if bad.mod_p_cond_exp(p) < bad.cond_exp:
                    continue
                b = 0
            a1, a2 = (b, a2) if d1 else (a1, b)
        checked += 1
        if (a1 - a2) % p != 0:
            notes.append("First mismatch at ell = %d." % ell)
            return CongruenceVerdict(
                CongruenceStatus.FAILED, level, bound, checked, (ell, a1, a2), " ".join(notes)
            )
    if structural is not None:
        notes.append(
            "Traces agree up to the bound, but ell = %d is additive for one "
            "curve and good for the other, which rules out an isomorphism of "
            "mod-%d representations." % (structural, p)
        )
        return CongruenceVerdict(
            CongruenceStatus.INCONCLUSIVE, level, bound, checked, None, " ".join(notes)
        )
    status = CongruenceStatus.VERIFIED if complete else CongruenceStatus.INCONCLUSIVE
    return CongruenceVerdict(status, level, bound, checked, None, " ".join(notes))
