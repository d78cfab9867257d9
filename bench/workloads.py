"""Seeded inputs for the three workloads.

Nothing here imports paritykit: curves come from the family's closed form or
from a seeded random draw, and every property used to select them (eligibility
at p, a known trace mismatch, the size of the discriminant's prime factors) is
computed by ``oracle``, which shares no code with the program.  The program
only ever sees the argv lists and curve files built here.

Each workload is a sequence of rounds.  A round is a fixed mix of requests;
the seed and the round index choose the parameters and the order inside it.
Runs execute whole rounds, so the mix of request kinds, and with it the
medians, do not depend on when the time runs out.
"""

from __future__ import annotations

import os
import random

import oracle

# README examples: 69a / 897d at p = 5 with both ranks known, and 32a against
# the family member at t = 207 at p = 3 with a rank bound for E2.
CURVE_69A = (1, 0, 1, -1, -1)
CURVE_897D = (1, 0, 1, 130884, -59725523)

# Family pairs at p = 3.  Measured Sturm bounds: 96 (D = 1), 768 (D = 2),
# 2880 (D = 5), 10752 (D = 7); D = 35 exceeds the scan cap and ends
# Inconclusive.  t stays at or below 30 so that factoring the member's
# discriminant never takes more than about 0.1 s.
FAMILY_T = tuple(range(3, 31, 3))

# One pair-cold round, heaviest kind first (22 requests).  Sorted by latency,
# R rounds put D = 35 at ranks 1..R from the top, D = 7 at R+1..6R, the
# README pairs at 6R+1..8R and D = 5 at 8R+1..12R.  The median (rank 11R)
# therefore always falls among the faster D = 5 requests and the tail (p75
# at rank 5.5R, or p90 at 2.2R from 100 requests on) among the D = 7 ones,
# for any number of rounds from 2 up.  On a shared host, bursts of
# contention slow some requests by about 40%; an order statistic taken in
# the faster part of a block of identical requests stays put while the share
# of slowed requests moves from run to run.
PAIR_COLD_MIX = (
    (("family", 35),)
    + (("family", 7),) * 5
    + (("readme-69-897", None), ("readme-32a-207", None))
    + (("family", 5),) * 4
    + (("family", 2), ("family", 1))
    + (("noncongruent", None),) * 8
)

# scan-family holds base(1) and member(1, t) for every multiple of 3 up to
# 45 except t = 30, whose bad prime 21886199 alone would quadruple the scan
# time; the largest counted bad prime is then 2840183 (t = 18).  The set is
# the same in every round, so the seed only orders the file: the work per
# scan is fixed and its time is steady.
SCAN_FAMILY_T = tuple(t for t in range(3, 46, 3) if t != 30)

# scan-triage: ELIGIBLE curves supersingular at 5 among TRIAGE_CURVES.
TRIAGE_CURVES = 48
TRIAGE_ELIGIBLE = 10
TRIAGE_COEFF = (10**4, 10**6)
# The part of an eligible curve's discriminant free of primes below 10^5 is at
# most 10^9.  The Sturm level of a pair then factors with Pollard rho in well
# under a second, far from the 10 s factoring budget, so verdicts do not
# depend on machine load.
TRIAGE_MAX_COFACTOR = 10**9
# Primes at which a mismatch mod p must be known before a pair is accepted
# as non-congruent.
MISMATCH_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def base_curve(D: int) -> tuple:
    return (0, 0, 0, -D, 0)


def family_member(D: int, t: int) -> tuple:
    a4 = D * (27 * D * D * t**4 - 18 * D * t * t - 1)
    a6 = 4 * D * D * t * (27 * D * D * t**4 + 1)
    return (0, 0, 0, a4, a6)


def literal(c: tuple) -> str:
    return "[%d,%d,%d,%d,%d]" % c


def _rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random("%s:%d:%d" % (workload, seed, index))


def _first_mismatch(c1: tuple, c2: tuple, p: int) -> int | None:
    """Smallest listed prime good for both curves where the traces differ mod p."""
    for ell in MISMATCH_PRIMES:
        if ell == p or not (oracle.is_good(c1, ell) and oracle.is_good(c2, ell)):
            continue
        if (oracle.trace(c1, ell) - oracle.trace(c2, ell)) % p:
            return ell
    return None


def _small_curve(rng: random.Random) -> tuple:
    while True:
        c = (rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1),
             rng.randint(-200, 200), rng.randint(-200, 200))
        if oracle.discriminant(c) != 0:
            return c


def _noncongruent_pair(rng: random.Random, p: int) -> tuple:
    while True:
        c1, c2 = _small_curve(rng), _small_curve(rng)
        ell = _first_mismatch(c1, c2, p)
        if ell is not None:
            return c1, c2, ell


def pair_cold_round(seed: int, index: int, out_dir: str) -> list[dict]:
    rng = _rng(seed, "pair-cold", index)
    requests = []
    for kind, D in PAIR_COLD_MIX:
        if kind == "family":
            t = rng.choice(FAMILY_T)
            c1, c2 = base_curve(D), family_member(D, t)
            req = {"kind": "family", "label": "family D=%d t=%d" % (D, t), "D": D, "t": t, "p": 3,
                   "argv": ["congruent", "--e1", literal(c1), "--e2", literal(c2), "-p", "3", "--json"]}
        elif kind == "noncongruent":
            c1, c2, ell = _noncongruent_pair(rng, 3)
            req = {"kind": kind, "p": 3, "curves": [c1, c2], "mismatch_at": ell,
                   "argv": ["congruent", "--e1", literal(c1), "--e2", literal(c2), "-p", "3", "--json"]}
        elif kind == "readme-69-897":
            req = {"kind": kind, "p": 5,
                   "argv": ["analyze", "--e1", literal(CURVE_69A), "--e2", literal(CURVE_897D),
                            "-p", "5", "--rank1", "0", "--rank2", "1", "--json"]}
        else:
            req = {"kind": kind, "p": 3,
                   "argv": ["analyze", "--e1", literal(base_curve(1)), "--e2", literal(family_member(1, 207)),
                            "-p", "3", "--rank1", "0", "--rank2-bound", "1", "--json"]}
        req["pairs"] = 1
        requests.append(req)
    rng.shuffle(requests)
    return requests


def _write_curve_file(path: str, records: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for label, c, rank in records:
            fh.write("%s ? %s %s\n" % (label, literal(c), "?" if rank is None else rank))


def scan_family_round(seed: int, index: int, out_dir: str) -> list[dict]:
    rng = _rng(seed, "scan-family", index)
    # 32a (y^2 = x^3 - x) has rank 0; the members' ranks are left unknown, so
    # each base/member pair also exercises the rank deduction.
    records = [("b1", base_curve(1), 0)] + [("m%d" % t, family_member(1, t), None) for t in SCAN_FAMILY_T]
    rng.shuffle(records)
    path = os.path.join(out_dir, "scan-family-%d.curves" % index)
    _write_curve_file(path, records)
    labels = [r[0] for r in records]
    n = len(labels)
    return [{"kind": "scan-family", "p": 3, "eligible": labels, "pairs": n * (n - 1) // 2,
             "argv": ["scan", "--file", path, "-p", "3", "--json"]}]


def _reduced_short_curve(rng: random.Random) -> tuple:
    lo, hi = TRIAGE_COEFF
    while True:
        a4 = rng.randint(lo, hi) * rng.choice((-1, 1))
        a6 = rng.randint(lo, hi) * rng.choice((-1, 1))
        c = (0, 0, 0, a4, a6)
        if oracle.discriminant(c) != 0 and oracle.is_reduced_short(a4, a6):
            return c


def scan_triage_round(seed: int, index: int, out_dir: str) -> list[dict]:
    rng = _rng(seed, "scan-triage", index)
    p = 5
    eligible, others = [], []
    while len(eligible) < TRIAGE_ELIGIBLE or len(others) < TRIAGE_CURVES - TRIAGE_ELIGIBLE:
        c = _reduced_short_curve(rng)
        if oracle.is_good(c, p) and oracle.trace(c, p) == 0:
            if len(eligible) == TRIAGE_ELIGIBLE:
                continue
            if oracle.cofactor(oracle.discriminant(c)) > TRIAGE_MAX_COFACTOR:
                continue
            # Every pair must have a known mismatch, so a Verified pair is an error.
            if any(_first_mismatch(other, c, p) is None for other in eligible):
                continue
            eligible.append(c)
        elif len(others) < TRIAGE_CURVES - TRIAGE_ELIGIBLE:
            others.append(c)
    records = [("s%d" % i, c, None) for i, c in enumerate(eligible)]
    records += [("n%d" % i, c, None) for i, c in enumerate(others)]
    rng.shuffle(records)
    path = os.path.join(out_dir, "scan-triage-%d.curves" % index)
    _write_curve_file(path, records)
    n = len(eligible)
    return [{"kind": "scan-triage", "p": p, "eligible": ["s%d" % i for i in range(n)],
             "pairs": n * (n - 1) // 2, "argv": ["scan", "--file", path, "-p", str(p), "--json"]}]


ROUNDS = {
    "pair-cold": pair_cold_round,
    "scan-family": scan_family_round,
    "scan-triage": scan_triage_round,
}
