"""Trace-congruence verification between two curves modulo an odd prime.

Two curves whose mod-p representations are isomorphic have congruent traces of
Frobenius away from bad primes.  The converse direction is certified up to a
Sturm bound: weight-2 forms on Gamma_0(L) that agree at every prime up to the
bound agree everywhere.  A Verified result therefore certifies congruence of
the semisimplified representations; irreducibility is not checked here.

The scan walks arith._PRIMES.  A prime ell >= 5 other than p that divides
neither model's discriminant takes the direct path: both models are minimal
with good reduction there, so both traces are counted from their short forms
on one shared character table, with no primality proof, minimal model or
Tate's algorithm.  Each curve keeps those traces in a compact per-curve table
(_TRACES), filled one prime at a time as far as a scan has walked and reused
by later pairs.  The counting ceiling is read once per call and checked at
every direct-path prime, stored or not.  Primes <= 3, primes dividing either
discriminant and ell = p go through tate_local.
"""

from __future__ import annotations

import enum
from array import array
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from math import prod

from .arith import _PRIMES, factor, is_prime
from .errors import ComputationLimitError
from .local import ReductionType, bad_reduction_data, max_counting_prime, tate_local
from .local import _check_ceiling, _count_short_forms, _short_form
from .weierstrass import CurveModel, invariants

# A full scan costs roughly the sum of all primes below the bound in counting
# work, so bounds past a few tens of thousands stop being interactive.  The
# scan walks arith._PRIMES, so the cap must stay within arith._TRIAL_LIMIT.
_BOUND_CAP = 20000

# Good-prime traces per curve model, indexed like arith._PRIMES: entry i is
# a_ell at ell = _PRIMES[i], or _UNSET where no scan has counted it (ell <= 3,
# ell = p, or ell dividing a discriminant of the pair).  |a_ell| <= 2*sqrt(ell)
# < 512 below the cap, so int16 holds every trace, about 4.5 KB per curve at
# most.  A table grows only as far as a scan has walked.
_TRACES: defaultdict[CurveModel, array] = defaultdict(partial(array, "h"))
_UNSET = -(2**15)


class CongruenceStatus(enum.Enum):
    VERIFIED = "Verified"
    FAILED = "Failed"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class CongruenceVerdict:
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


def _sturm_level(c1: CurveModel, c2: CurveModel, p: int, reduced: bool) -> tuple[int, int]:
    """(level, Sturm bound) for lcm(N1, N2, p^2), read off the bad-prime data.

    The reduced level drops multiplicative primes where the mod-p
    representation is unramified (p divides the valuation of the minimal
    discriminant, the Tate-curve criterion) and keeps everything else.
    """
    level = {p: 2}
    for d in bad_reduction_data(c1) + bad_reduction_data(c2):
        if reduced and d.ell != p and d.unramified_mod(p):
            continue
        level[d.ell] = max(level.get(d.ell, 0), d.cond_exp)
    return prod(ell**e for ell, e in level.items()), _sturm(level)


def _compared_pair(d1, d2, p: int) -> tuple[int, int] | None:
    """Trace values to compare at one prime, or None when the prime is skipped."""
    good1 = d1.red_type is ReductionType.GOOD
    good2 = d2.red_type is ReductionType.GOOD
    if good1 and good2:
        return d1.trace, d2.trace
    if not good1 and not good2:
        return None
    good, bad = (d1, d2) if good1 else (d2, d1)
    if bad.red_type.is_multiplicative:
        # Compare against the Frobenius trace of the unramified semisimplified
        # representation at a multiplicative prime: +-(ell + 1).
        pair = (good.trace, bad.trace * (bad.ell + 1))
    elif p == 3:
        return None
    else:
        pair = (good.trace, 0)
    return pair if good1 else (pair[1], pair[0])


def _good_traces(tables, invs, i: int, ell: int) -> tuple[int, int]:
    """Traces of both curves at ell = _PRIMES[i] >= 5, a good prime for both.

    Traces already in the curves' tables are reused; the others are counted
    together on one character table and stored at index i.
    """
    missing = [k for k, t in enumerate(tables) if len(t) <= i or t[i] == _UNSET]
    if missing:
        counts = _count_short_forms(ell, [_short_form(invs[k]) for k in missing])
        for k, n in zip(missing, counts):
            t = tables[k]
            if len(t) <= i:
                t.extend(array("h", [_UNSET]) * (i + 1 - len(t)))
            t[i] = ell + 1 - n
    return tables[0][i], tables[1][i]


def check_congruence(c1: CurveModel, c2: CurveModel, p: int) -> CongruenceVerdict:
    """Compare a_ell(E1) and a_ell(E2) mod p for all primes up to a Sturm bound.

    The bound is taken at level lcm(N1, N2, p^2) when that is small enough to
    scan; otherwise at the smaller level obtained by discarding multiplicative
    primes whose mod-p representation is unramified.  Primes bad for both
    curves and ell = p are skipped.
    """
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    notes = [
        "Verified certifies congruence of semisimplified mod-%d representations "
        "up to the stated bound; primes bad for both curves and ell = %d are skipped."
        % (p, p)
    ]
    level, bound = _sturm_level(c1, c2, p, reduced=False)
    complete = True
    if bound > _BOUND_CAP:
        level, bound = _sturm_level(c1, c2, p, reduced=True)
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
    if p == 3:
        notes.append(
            "Primes additive for one curve and good for the other are skipped "
            "at p = 3 (a mod-3 conductor drop cannot be ruled out)."
        )
    checked = 0
    structural = None
    limit = bound if complete else _BOUND_CAP
    tables = None
    for i, ell in enumerate(_PRIMES[: bisect_right(_PRIMES, limit)]):
        if ell == p:
            continue
        if tables is None and ell >= 5:
            # Set up the direct path only for scans that get past 2 and 3.
            ceiling = max_counting_prime()
            invs = invariants(c1), invariants(c2)
            disc1, disc2 = invs[0].disc, invs[1].disc
            tables = _TRACES[c1], _TRACES[c2]
        # Good for both, so both models are already minimal at ell.
        direct = ell >= 5 and disc1 % ell and disc2 % ell
        try:
            if direct:
                _check_ceiling(ell, ceiling)
                pair = _good_traces(tables, invs, i, ell)
            else:
                d1, d2 = tate_local(c1, ell), tate_local(c2, ell)
        except ComputationLimitError as exc:
            notes.append("Scan aborted at %d: %s." % (ell, exc))
            return CongruenceVerdict(
                CongruenceStatus.INCONCLUSIVE, level, bound, checked, None, " ".join(notes)
            )
        if not direct:
            pair = _compared_pair(d1, d2, p)
            if pair is None:
                continue
            # Past the skip above, an additive entry here means the other curve is good.
            additive = ReductionType.ADDITIVE in (d1.red_type, d2.red_type)
            if structural is None and p >= 5 and additive:
                structural = ell
        checked += 1
        if (pair[0] - pair[1]) % p != 0:
            notes.append("First mismatch at ell = %d." % ell)
            return CongruenceVerdict(
                CongruenceStatus.FAILED, level, bound, checked, (ell, pair[0], pair[1]), " ".join(notes)
            )
    if structural is not None:
        # Additive versus good forces a ramification mismatch of the mod-p
        # representations for p >= 5 even when the traces happen to agree.
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
