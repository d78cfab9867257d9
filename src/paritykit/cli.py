"""Command-line front end.

Exit codes: 0 success (relation holds or nothing to report), 1 relation
violated or congruence Failed, 2 usage error, 3 computational limit exceeded.
Diagnostics go to stderr; reports go to stdout.

Every option is declared once, in ``_COMMANDS``.  ``run`` reads an argv of
the exact form straight from that table: a command name, then options of that
command each at most once and spelled in full, a flag alone and any other
option followed by one value that does not start with "-" and that the
option's converter accepts, with every required option present.  For such an
argv argparse would return the same namespace.  Any other argv (help,
abbreviations, ``--opt=value``, repeated options, negative values, errors)
goes to argparse, which is imported and built from the same table only then,
so every help text, error message and exit code is argparse's.

``scan`` keeps one congruence.screen_residues tuple per eligible record and
prints "congruence Failed" for a pair whose tuples differ at a prime set in
both, without calling check_congruence, which would return Failed at that
prime or an earlier one; every other pair goes through check_congruence.

A scan whose pairs past the screen are worth it uses a second core, where
congruence._may_fork allows a helper process.  Before each such pair, until
it forks, the parent asks _pair_helper_pays: the pairs it has timed must
predict at least _FORK_MIN_S for the rest, and no pair from there on may have
a Sturm walk long enough to fork its own helper.  Then it forks one child,
which runs the rest from the last one down and sends each pair's result over
a pipe: its stderr line, or its report's text and whether it violates the
relation.  The parent runs them on up and reads the pipe, without blocking,
before each; from the lowest pair the child has sent it takes the sent
results and ends the child, whatever pair it is in.  So stdout, stderr, the
exit code and every error are those of the serial loop: a pair the child did
not send is run by the parent.  While the child runs, neither process forks a
Sturm helper.  There is no setting for this.
"""

from __future__ import annotations

import gc
import os
import sys
import types
from io import StringIO
from time import perf_counter

from .arith import is_prime
from .congruence import (CongruenceStatus, _fork, _Helper, _may_fork, _reap, _walk_may_fork, check_congruence,
                         screen_residues)
from .errors import ComputationLimitError
from .family import member
from .io import emit_json, emit_json_list, emit_report, json_list_item, parse_curve_file, report_object, verdict_object
from .local import CurveData, tate_local
from .parity import check_supersingular_pair, deduce_rank, outside_hypothesis, parity_relation
from .weierstrass import minimal_model, parse_curve

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


def _odd_prime(value: int) -> int:
    if value < 3 or value % 2 == 0 or not is_prime(value):
        raise ValueError("p must be an odd prime, got %d" % value)
    return value


def _rank(text: str) -> int:
    if not text.isdecimal():
        import argparse

        raise argparse.ArgumentTypeError("must be a non-negative integer, got %r" % text)
    return int(text)


def _match_rank(records, curve):
    for rec in records:
        if rec.curve == curve:
            return rec
    target = minimal_model(curve)[0]
    for rec in records:
        if minimal_model(rec.curve)[0] == target:
            return rec
    return None


def _fmt_set(values) -> str:
    return "{%s}" % ", ".join(str(v) for v in sorted(values))


def _fmt_verdict(v, witness_indent: str = "") -> str:
    """The status line of a congruence verdict and, after a mismatch, its witness line."""
    text = "%s (level %s, Sturm bound %s, %d primes compared)\n" % (
        v.status, v.level, v.bound, v.checked_primes
    )
    if v.witness is not None:
        text += "%switness: ell = %d, traces %d vs %d\n" % (witness_indent, *v.witness)
    return text


def _print_text_report(report, out) -> None:
    for name, c, label, n in zip(("E1", "E2"), report.curves, report.labels, report.conductors):
        out.write("%s = %s  (%s, N = %d)\n" % (name, c, label, n))
    out.write("p = %d\n" % report.p)
    out.write("congruence: " + _fmt_verdict(report.congruence, "  "))
    out.write("sigma  = %s\n" % _fmt_set(report.sigma_data.sigma))
    out.write("sigma0 = %s\n" % _fmt_set(report.sigma_data.sigma0))
    for ell in report.sigma_data.sigma0:
        ev = report.sigma_data.evidence[ell]
        for tag, reasons in (("E1", ev.e1_reasons), ("E2", ev.e2_reasons)):
            for reason in reasons:
                out.write("  %d drops for %s: %s\n" % (ell, tag, reason))
    for ell, ev in report.sigma_data.evidence.items():
        for warning in ev.warnings:
            out.write("  warning at %d: %s\n" % (ell, warning))
    out.write("S1 = %s, S2 = %s\n" % (_fmt_set(report.s1), _fmt_set(report.s2)))
    out.write(
        "ranks: E1 %s, E2 %s\n"
        % tuple("unknown" if r is None else str(r) for r in report.ranks)
    )
    if report.relation_holds is not None:
        out.write(
            "relation: r1 + |S1| = %d, r2 + |S2| = %d (mod 2) -> %s\n"
            % (*report.parities, "holds" if report.relation_holds else "VIOLATED")
        )
    if report.deduced is not None:
        d = report.deduced
        out.write("deduced rank of %s: parity %s" % (d.curve, d.parity))
        if d.exact is not None:
            out.write(", exact value %d" % d.exact)
        elif d.candidates is not None:
            out.write(", candidates %s" % _fmt_set(d.candidates))
        out.write("\n")
    for h in report.hypotheses:
        out.write("hypothesis [%s]: %s\n" % (h.id, h.detail))


def _deduce(report, bound: int | None):
    """The report with deduced set when exactly one rank is known; ValueError
    when the bound contradicts the forced parity."""
    r1, r2 = report.ranks
    if (r1 is None) == (r2 is None):
        return report
    deduced = deduce_rank(r2 if r1 is None else r1, len(report.s1), len(report.s2), bound)
    return report._replace(deduced=deduced._replace(curve="e2" if r2 is None else "e1"))


def _cmd_analyze(args) -> int:
    p = _odd_prime(args.p)
    c1, c2 = parse_curve(args.e1), parse_curve(args.e2)
    ranks = [args.rank1, args.rank2]
    labels = ["E1", "E2"]
    data = [None, None]
    if args.ranks_file:
        with open(args.ranks_file, encoding="utf-8") as fh:
            records = parse_curve_file(fh)
        for i, c in enumerate((c1, c2)):
            rec = _match_rank(records, c)
            if rec is not None:
                labels[i] = rec.label
                if rec.curve == c:
                    data[i] = rec.data
                if ranks[i] is None:
                    ranks[i] = rec.rank
    rank1, rank2 = ranks
    if args.rank2_bound is not None and rank2 is not None:
        raise ValueError("--rank2-bound only applies when the rank of E2 is unknown")
    if args.rank2_bound is not None and rank1 is None:
        raise ValueError("--rank2-bound needs the rank of E1: pass --rank1 or a --ranks-file entry")
    e1, e2 = (CurveData(c) if d is None else d for d, c in zip(data, (c1, c2)))
    check_supersingular_pair(e1, e2, p)
    verdict = check_congruence(e1, e2, p)
    print("congruence verdict: %s. %s" % (verdict.status, verdict.caveat), file=sys.stderr)
    if verdict.status is not CongruenceStatus.VERIFIED and not args.assume_congruent:
        if verdict.witness is not None:
            print(
                "congruence Failed: a_%d = %d vs %d (mod %d)"
                % (verdict.witness[0], verdict.witness[1], verdict.witness[2], p),
                file=sys.stderr,
            )
            return EXIT_VIOLATED
        print("congruence Inconclusive; rerun with --assume-congruent to proceed", file=sys.stderr)
        return EXIT_LIMIT
    report = parity_relation(e1, e2, p, rank1=rank1, rank2=rank2, verdict=verdict,
                             assume_congruent=args.assume_congruent, labels=tuple(labels))
    try:
        report = _deduce(report, args.rank2_bound)
    except ValueError as exc:
        print("rank deduction: %s" % exc, file=sys.stderr)
        return EXIT_VIOLATED
    if args.json:
        sys.stdout.write(emit_report(report))
    else:
        _print_text_report(report, sys.stdout)
    return EXIT_VIOLATED if report.relation_holds is False else EXIT_OK


def _cmd_congruent(args) -> int:
    p = _odd_prime(args.p)
    c1, c2 = parse_curve(args.e1), parse_curve(args.e2)
    verdict = check_congruence(c1, c2, p)
    if args.json:
        sys.stdout.write(emit_json(verdict_object(verdict)))
    else:
        sys.stdout.write("%s%s\n" % (_fmt_verdict(verdict), verdict.caveat))
    if verdict.status is CongruenceStatus.VERIFIED:
        return EXIT_OK
    if verdict.status is CongruenceStatus.FAILED:
        return EXIT_VIOLATED
    return EXIT_LIMIT


def _local_row(d) -> dict:
    return {
        "ell": d.ell,
        "type": str(d.red_type),
        "cond_exp": d.cond_exp,
        "v_disc": d.v_disc,
        "trace": d.trace,
        "kodaira": d.kodaira,
    }


def _cmd_local_info(args) -> int:
    c = parse_curve(args.curve)
    if args.ell is not None:
        rows = [tate_local(c, args.ell)]
        n = None
    else:
        data = CurveData(c)
        rows, n = list(data.bad.values()), data.conductor
    if args.json:
        obj = {"curve": c.coefficients(), "conductor": n, "local": [_local_row(d) for d in rows]}
        sys.stdout.write(emit_json(obj))
        return EXIT_OK
    if n is not None:
        sys.stdout.write("conductor %d\n" % n)
    for d in rows:
        sys.stdout.write(
            "ell %d: %s, cond_exp %d, v_disc %d, trace %d, kodaira %s\n"
            % (d.ell, d.red_type, d.cond_exp, d.v_disc, d.trace, d.kodaira)
        )
    return EXIT_OK


def _cmd_family(args) -> int:
    c = member(args.D, args.t)
    if args.json:
        obj = {"D": args.D, "t": args.t, "coefficients": [str(a) for a in c.coefficients()]}
        sys.stdout.write(emit_json(obj))
    else:
        sys.stdout.write("%s\n" % (c,))
    return EXIT_OK


def _screen_key(residues: tuple, width: int) -> tuple[int, int]:
    """A screen_residues tuple as two ints: each set residue in its own width-bit field, and those fields' bits.

    Two tuples differ at a prime set for both exactly when (v1 ^ v2) & m1 & m2
    is not 0, which takes one step per pair in place of a walk of the tuples.
    """
    values = mask = 0
    for i, r in enumerate(residues):
        if r is not None:
            values |= r << i * width
            mask |= ((1 << width) - 1) << i * width
    return values, mask


# The kinds of a screened-in pair's result: a stderr line, or a report whose
# relation holds (or is unknown) or is violated.
_LINE, _HOLDS, _VIOLATED = 0, 1, 2


def _check_pair(a, b, p: int, as_json: bool) -> tuple[int, str]:
    """The result of a pair that passed the screen, as (kind, text).

    (_LINE, its stderr line) when the pair is not Verified; otherwise _HOLDS
    or _VIOLATED and its report: an element of the JSON list with --json, the
    text report without.
    """
    verdict = check_congruence(a.data, b.data, p)
    if verdict.status is not CongruenceStatus.VERIFIED:
        return _LINE, "%s / %s: congruence %s" % (a.label, b.label, verdict.status)
    report = parity_relation(a.data, b.data, p, rank1=a.rank, rank2=b.rank, verdict=verdict,
                             labels=(a.label, b.label))
    report = _deduce(report, None)
    kind = _VIOLATED if report.relation_holds is False else _HOLDS
    if as_json:
        return kind, json_list_item(report_object(report))
    out = StringIO()
    _print_text_report(report, out)
    return kind, out.getvalue()


# A pair helper costs its fork, the parent's copy-on-write page faults, the
# decoding of the child's texts, a pair both sides may run at the meeting
# point, and its reap.  Files of scan-family's curves, whose pairs take about
# 0.3-0.4 ms each, broke even at about 28 pairs, 11 ms of pairs, with the
# helper forked before the first pair: 28 pairs ran 12.5 ms forked and 12.0 ms
# serial, 36 ran 13.6 and 14.3 (cli.run medians of 12 fresh processes, 2-vCPU
# VM).  The first pairs, which count the traces later pairs reuse, cost more
# than the rest (0.4-0.6 ms), so the bar for the predicted rest sits above 11.
_FORK_MIN_S = 0.016

# signal.SIGKILL wherever os.fork exists; importing signal would cost 0.9 ms.
_SIGKILL = 9


def _pair_helper_pays(pairs: _PairRun, k: int) -> bool:
    """Whether a helper process should run the pairs of pairs.checks from k on, and may (congruence._may_fork).

    The pairs timed since pairs.start, in pairs.spent seconds, must predict at
    least _FORK_MIN_S for the rest, at least two of them: cheap pairs never
    fork, however many pass the screen.  Two must have been timed, since the
    first counts traces that later pairs reuse and alone predicts too much.
    The first time that holds, no pair from k on may have a Sturm walk that
    could fork its own helper (congruence._walk_may_fork): in a process that
    has or is a helper that walk could not, so the pair would run at full
    length where the serial scan splits it in two.  If one has, the parent
    runs the pairs up to the last of those, and the timing starts again after
    it, since such a pair says nothing of what the rest cost.
    """
    n = len(pairs.checks)
    if k == pairs.start:
        pairs.spent = 0.0
    timed = k - pairs.start
    if timed < 2 or n - k < 2 or pairs.spent * (n - k) < _FORK_MIN_S * timed:
        return False
    if not pairs.looked:
        pairs.looked = True
        for j in range(n - 1, k - 1, -1):
            a, b = pairs.checks[j]
            if _walk_may_fork(a.data, b.data, pairs.p):
                pairs.start = j + 1
                return False
    return _may_fork()


def _fork_pairs(checks: list, k: int, p: int, as_json: bool) -> _PairHelper | None:
    """A child that runs the pairs of checks from the last one down to checks[k] and sends each result.

    A record is the kind as one byte, the length of the UTF-8 text as four
    bytes and the text.  None when the fork fails.
    """

    def send(w):
        for a, b in reversed(checks[k:]):
            kind, text = _check_pair(a, b, p, as_json)
            data = text.encode()
            record = memoryview(bytes((kind,)) + len(data).to_bytes(4, "little") + data)
            while record:
                record = record[os.write(w, record) :]

    forked = _fork(send)
    return forked and _PairHelper(*forked, len(checks))


class _PairHelper(_Helper):
    """The parent's end of _fork_pairs; the keys it reads are indices into checks."""

    def _take(self, data: bytes, sent: dict) -> int:
        """Add the whole records that data starts with to sent, as {index: (kind, text)}; returns their length."""
        start = 0
        while start + 5 <= len(data):
            end = start + 5 + int.from_bytes(data[start + 1 : start + 5], "little")
            if end > len(data):
                break
            self.lowest -= 1
            sent[self.lowest] = data[start], data[start + 5 : end].decode()
            start = end
        return start

    def stop(self) -> None:
        """End the child, whatever pair it is in, and close the pipe; idempotent."""
        if self.fd is not None:
            os.kill(self.pid, _SIGKILL)
        super().stop()


class _PairRun:
    """The results of a scan's screened-in pairs, checks, in order; a helper process may run the later ones.

    Before each pair it runs, while no helper has been forked, next() asks
    _pair_helper_pays whether to fork one for that pair and the rest.  Once
    one runs, next() first reads its pipe, and from the lowest pair it has
    sent takes the sent results and ends it.  close() ends and reaps it.
    """

    def __init__(self, checks: list, p: int, as_json: bool) -> None:
        self.checks, self.p, self.as_json = checks, p, as_json
        self.k = 0  # the index of the next pair
        self.start = 0  # the first pair timed in spent
        self.spent = 0.0  # seconds spent in _check_pair here since start
        self.looked = False  # whether _pair_helper_pays has looked for pairs whose Sturm walk may fork
        self.forked = False
        self.helper = None
        self.sent = {}

    def next(self) -> tuple[int, str]:
        """The _check_pair result of the next pair."""
        k = self.k
        self.k += 1
        if self.helper is not None:
            if self.helper.read(self.sent) <= k:
                self.helper.stop()  # the child has sent this pair and every later one; reaped by close
            if k in self.sent:
                return self.sent[k]
        elif not self.forked and _pair_helper_pays(self, k):
            self.forked = True
            self.helper = _fork_pairs(self.checks, k, self.p, self.as_json)
        start = perf_counter()
        result = _check_pair(*self.checks[k], self.p, self.as_json)
        self.spent += perf_counter() - start
        return result

    def close(self) -> None:
        if self.helper is not None:
            self.helper.stop()
            _reap(self.helper.pid)


def _cmd_scan(args) -> int:
    p = _odd_prime(args.p)
    with open(args.file, encoding="utf-8") as fh:
        records = parse_curve_file(fh)
    eligible = []
    for rec in records:
        try:
            why = outside_hypothesis(rec.data, p)
            if why is None:
                # factored and screened here, once, rather than in each of its pairs
                residues = screen_residues(rec.data, p)
        except (ValueError, ComputationLimitError) as exc:
            why = str(exc)
        if why is not None:
            print("skipping %s: %s" % (rec.label, why), file=sys.stderr)
            continue
        eligible.append((rec, *_screen_key(residues, p.bit_length())))
    # A pair whose residues differ at a prime set for both is ruled out:
    # check_congruence would return Failed at that prime or an earlier one.
    checks = [(a, b) for i, (a, va, ma) in enumerate(eligible) for b, vb, mb in eligible[i + 1 :]
              if not (va ^ vb) & ma & mb]
    failed = "%%s / %%s: congruence %s" % CongruenceStatus.FAILED
    code = EXIT_OK
    reports = []
    pairs = _PairRun(checks, p, args.json)
    try:
        for i, (a, va, ma) in enumerate(eligible):
            for b, vb, mb in eligible[i + 1 :]:
                if (va ^ vb) & ma & mb:
                    print(failed % (a.label, b.label), file=sys.stderr)
                    continue
                kind, text = pairs.next()
                if kind == _LINE:
                    print(text, file=sys.stderr)
                    continue
                reports.append(text)
                if kind == _VIOLATED:
                    code = EXIT_VIOLATED
        sys.stdout.write(emit_json_list(reports) if args.json else "\n".join(reports))
    finally:
        pairs.close()  # after the output, so the child's exit overlaps it
    return code


# The command line.  A command maps to its handler, its help line and its
# options; an option is (flag, converter, required, help), and the converter
# None marks a flag, which takes no value.
_CURVE_HELP = "curve literal [a1,a2,a3,a4,a6]"
_COMMANDS = {
    "analyze": (_cmd_analyze, "full pipeline for one pair of curves", (
        ("--e1", str, True, _CURVE_HELP),
        ("--e2", str, True, _CURVE_HELP),
        ("-p", int, True, "odd supersingular prime"),
        ("--rank1", _rank, False, None),
        ("--rank2", _rank, False, None),
        ("--rank2-bound", _rank, False, None),
        ("--assume-congruent", None, False, None),
        ("--ranks-file", str, False, None),
        ("--json", None, False, None),
    )),
    "congruent": (_cmd_congruent, "congruence check only", (
        ("--e1", str, True, None),
        ("--e2", str, True, None),
        ("-p", int, True, None),
        ("--json", None, False, None),
    )),
    "local-info": (_cmd_local_info, "reduction data for one curve", (
        ("--curve", str, True, None),
        ("--ell", int, False, None),
        ("--json", None, False, None),
    )),
    "family": (_cmd_family, "print a family member", (
        ("--D", int, True, None),
        ("--t", int, True, None),
        ("--json", None, False, None),
    )),
    "scan": (_cmd_scan, "all-pairs congruence scan over a curve file", (
        ("--file", str, True, None),
        ("-p", int, True, None),
        ("--json", None, False, None),
    )),
}


def _dest(flag: str) -> str:
    """The attribute name that argparse derives from a lone option string."""
    return flag.lstrip("-").replace("-", "_")


def _parse_exact(argv):
    """The namespace of an argv of the exact form (module docstring), else None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, options = _COMMANDS[argv[0]]
    converters = {flag: convert for flag, convert, _, _ in options}
    args = {_dest(flag): None if convert else False for flag, convert in converters.items()}
    args.update(command=argv[0], func=func)
    seen = set()
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in converters or flag in seen:
            return None
        seen.add(flag)
        convert = converters[flag]
        if convert is None:
            args[_dest(flag)] = True
            continue
        value = next(tokens, "-")  # a missing value defers like a dash
        if value.startswith("-"):
            return None
        try:
            args[_dest(flag)] = convert(value)
        except Exception:  # argparse calls the converter again and reports the error
            return None
    if any(required and flag not in seen for flag, _, required, _ in options):
        return None
    return types.SimpleNamespace(**args)


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="paritykit",
        description="Congruence and rank-parity analysis for elliptic curves "
        "supersingular at an odd prime.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, convert, required, help_opt in options:
            if convert is None:
                command.add_argument(flag, action="store_true", help=help_opt)
            else:
                command.add_argument(flag, type=convert, required=required, help=help_opt)
        command.set_defaults(func=func)
    return parser


def run(argv=None) -> int:
    # A CLI process serves one request, and what is alive at the first call is
    # what importing paritykit left, with no cyclic garbage pending.
    # Freezing it keeps the collections inside the request from walking it
    # again.  Later calls in one process (tests) leave their garbage collectable.
    if not gc.get_freeze_count():
        gc.freeze()
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_exact(argv) or _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ComputationLimitError as exc:
        print("computational limit: %s" % exc, file=sys.stderr)
        return EXIT_LIMIT
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
