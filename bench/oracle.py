"""Independent arithmetic and the output checks that feed error_ratio and decided_ratio.

The arithmetic here (discriminant, brute-force point count over F_ell, trial
division) is written from the textbook formulas and shares no code with
paritykit.  ``check`` takes one request as built by ``workloads`` and the
worker's record of running it, and returns how many curve pairs the request
attempted, how many ended with a definitive verdict, and every problem found.
"""

from __future__ import annotations

import json
import re

# Messages of the documented limits: the point-counting ceiling
# (PARITYKIT_MAX_ELL), the factoring time budget and the is_prime range.
# A Sturm bound over the scan cap shows up as an Inconclusive verdict.
LIMIT_MESSAGES = ("exceeds the ceiling", "time budget exhausted", "out of supported range")

_TRIAL_PRIMES: list[int] = []


def discriminant(c: tuple) -> int:
    a1, a2, a3, a4, a6 = c
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def is_good(c: tuple, ell: int) -> bool:
    """True when this model already has good reduction at ell (sufficient, not necessary)."""
    return discriminant(c) % ell != 0


def count_points(c: tuple, ell: int) -> int:
    """#E(F_ell), point at infinity included, by running over x and solving for y."""
    a1, a2, a3, a4, a6 = (a % ell for a in c)
    n = 1
    if ell == 2:
        for x in range(2):
            for y in range(2):
                if (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % 2 == 0:
                    n += 1
        return n
    squares = [0] * ell
    for y in range(ell):
        squares[y * y % ell] += 1
    for x in range(ell):
        # y^2 + (a1 x + a3) y = f(x)  <=>  (2y + a1 x + a3)^2 = 4 f(x) + (a1 x + a3)^2
        h = a1 * x + a3
        rhs = 4 * (x**3 + a2 * x * x + a4 * x + a6) + h * h
        n += squares[rhs % ell]
    return n


def trace(c: tuple, ell: int) -> int:
    return ell + 1 - count_points(c, ell)


def _trial_primes() -> list[int]:
    if not _TRIAL_PRIMES:
        limit = 10**5
        flags = bytearray([1]) * (limit + 1)
        flags[0] = flags[1] = 0
        for q in range(2, int(limit**0.5) + 1):
            if flags[q]:
                flags[q * q :: q] = bytearray(len(flags[q * q :: q]))
        _TRIAL_PRIMES.extend(i for i, f in enumerate(flags) if f)
    return _TRIAL_PRIMES


def cofactor(n: int) -> int:
    """|n| with every prime factor below 10^5 divided out."""
    n = abs(n)
    for q in _trial_primes():
        if n % q == 0:
            while n % q == 0:
                n //= q
    return n


def is_reduced_short(a4: int, a6: int) -> bool:
    """No prime q with q^4 | a4 and q^6 | a6, so y^2 = x^3 + a4 x + a6 is minimal away from 2 and 3."""
    for q in _trial_primes():
        if q**4 > abs(a4):
            return True
        if a4 % q**4 == 0 and a6 % q**6 == 0:
            return False
    return True


class Outcome:
    """What one request attempted and decided, and the checks it failed."""

    def __init__(self, pairs: int):
        self.pairs = pairs
        self.decided = 0
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.problems.append(message)


def _limit_hit(text: str) -> bool:
    return any(m in text for m in LIMIT_MESSAGES)


def _check_report(rep: dict, out: Outcome, where: str) -> None:
    sigma, sigma0 = set(rep["sigma"]), set(rep["sigma0"])
    s1, s2 = set(rep["s1"]), set(rep["s2"])
    if not (s1 <= sigma0 and s2 <= sigma0 and sigma0 <= sigma):
        out.fail("%s: S1, S2 within sigma0 within sigma fails" % where)
    if rep["p"] not in sigma:
        out.fail("%s: p missing from sigma" % where)
    known = rep["ranks"]["known"]
    r1, r2 = known["e1"], known["e2"]
    rel = rep["relation"]
    lhs = None if r1 is None else (r1 + len(s1)) % 2
    rhs = None if r2 is None else (r2 + len(s2)) % 2
    if (rel["lhs_parity"], rel["rhs_parity"]) != (lhs, rhs):
        out.fail("%s: relation parities %s/%s, expected %s/%s"
                 % (where, rel["lhs_parity"], rel["rhs_parity"], lhs, rhs))
    holds = None if lhs is None or rhs is None else lhs == rhs
    if rel["holds"] != holds:
        out.fail("%s: relation.holds is %s, parities give %s" % (where, rel["holds"], holds))
    deduced = rep["ranks"]["deduced"]
    if deduced is not None:
        known_rank = r1 if r1 is not None else r2
        parity = "odd" if (known_rank + len(s1) + len(s2)) % 2 else "even"
        if deduced["parity"] != parity:
            out.fail("%s: deduced parity %s, expected %s" % (where, deduced["parity"], parity))


def _recheck_witness(req: dict, verdict: dict, out: Outcome) -> None:
    ell, t1, t2 = verdict["witness"]
    p = req["p"]
    c1, c2 = req["curves"]
    if (t1 - t2) % p == 0:
        out.fail("witness at %d has traces %d, %d congruent mod %d" % (ell, t1, t2, p))
    if is_good(c1, ell) and is_good(c2, ell) and (trace(c1, ell), trace(c2, ell)) != (t1, t2):
        out.fail("witness at %d: traces %d, %d but brute force gives %d, %d"
                 % (ell, t1, t2, trace(c1, ell), trace(c2, ell)))
    if ell > req["mismatch_at"]:
        out.fail("witness at %d, but the traces already differ at %d" % (ell, req["mismatch_at"]))


_EXIT_FOR_STATUS = {"Verified": 0, "Failed": 1, "Inconclusive": 3}


def _check_congruent(req: dict, res: dict, out: Outcome) -> None:
    if res["code"] == 3 and _limit_hit(res["stderr"]):
        return
    verdict = json.loads(res["stdout"])
    status = verdict["status"]
    if res["code"] != _EXIT_FOR_STATUS.get(status):
        out.fail("status %s with exit code %s" % (status, res["code"]))
    if status == "Failed":
        if verdict["witness"] is None:
            out.fail("Failed without a witness")
            return
        out.decided = 1
        if req["kind"] == "family":
            out.fail("family pair D = %d, t = %d reported Failed" % (req["D"], req["t"]))
        else:
            _recheck_witness(req, verdict, out)
    elif status == "Verified":
        out.decided = 1
        if req["kind"] == "noncongruent":
            out.fail("Verified, but the traces differ at %d" % req["mismatch_at"])


def _check_readme(req: dict, res: dict, out: Outcome) -> None:
    if res["code"] != 0:
        out.fail("exit code %s" % res["code"])
        return
    rep = json.loads(res["stdout"])
    _check_report(rep, out, req["kind"])
    if rep["congruence"]["status"] != "Verified":
        out.fail("congruence %s" % rep["congruence"]["status"])
        return
    out.decided = 1
    if req["kind"] == "readme-69-897":
        expect = {"sigma0": [13], "s1": [13], "s2": []}
        if rep["relation"]["holds"] is not True:
            out.fail("relation does not hold")
    else:
        expect = {"sigma0": [37, 83, 4035637], "s1": [83], "s2": []}
        deduced = rep["ranks"]["deduced"] or {}
        if (deduced.get("curve"), deduced.get("exact")) != ("e2", 1):
            out.fail("deduced rank %s, expected exactly 1 for e2" % deduced)
    for key, value in expect.items():
        if rep[key] != value:
            out.fail("%s is %s, expected %s" % (key, rep[key], value))


_SKIP_RE = re.compile(r"^skipping (\S+): (.*)$")
_PAIR_RE = re.compile(r"^(\S+) / (\S+): (.*)$")


def _check_scan(req: dict, res: dict, out: Outcome) -> None:
    if res["code"] != 0:
        out.fail("exit code %s" % res["code"])
        return
    eligible = set(req["eligible"])
    skipped = set()
    pairs = {}
    for line in res["stderr"].splitlines():
        m = _SKIP_RE.match(line)
        if m:
            skipped.add(m.group(1))
            continue
        m = _PAIR_RE.match(line)
        if m:
            pairs[frozenset(m.group(1, 2))] = m.group(3)
    reports = json.loads(res["stdout"])
    for rep in reports:
        a, b = (c["label"] for c in rep["curves"])
        where = "%s / %s" % (a, b)
        _check_report(rep, out, where)
        status = rep["congruence"]["status"]
        if status != "Verified":
            out.fail("%s: report with congruence %s" % (where, status))
        if req["kind"] == "scan-triage":
            out.fail("%s: Verified, but the oracle found a mismatch" % where)
        pairs[frozenset((a, b))] = "report"
    seen = {label for pair in pairs for label in pair}
    if seen - eligible or skipped & eligible:
        out.fail("eligible curves differ from the oracle's: %s" % sorted((seen - eligible) | (skipped & eligible)))
    if len(pairs) != req["pairs"]:
        out.fail("%d pairs accounted for, expected %d" % (len(pairs), req["pairs"]))
    for pair, what in pairs.items():
        where = " / ".join(sorted(pair))
        if what == "report" or what == "congruence Failed":
            out.decided += 1
            if what == "congruence Failed" and req["kind"] == "scan-family":
                out.fail("%s: family pair reported Failed" % where)
        elif what != "congruence Inconclusive" and not _limit_hit(what):
            out.fail("%s: %s" % (where, what))


def check(req: dict, res: dict) -> Outcome:
    out = Outcome(req["pairs"])
    if res.get("crash"):
        out.fail("worker crashed: %s" % res["crash"].strip().splitlines()[-1])
        return out
    try:
        if req["kind"] in ("family", "noncongruent"):
            _check_congruent(req, res, out)
        elif req["kind"].startswith("readme"):
            _check_readme(req, res, out)
        else:
            _check_scan(req, res, out)
    except (ValueError, KeyError, TypeError) as exc:
        out.fail("unreadable output: %s: %s" % (type(exc).__name__, exc))
    return out
