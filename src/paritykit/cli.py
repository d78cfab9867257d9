"""Command-line front end.

Exit codes: 0 success (relation holds or nothing to report), 1 relation
violated or congruence Failed, 2 usage error, 3 computational limit exceeded.
Diagnostics go to stderr; reports go to stdout.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .arith import is_prime
from .congruence import CongruenceStatus, check_congruence
from .errors import ComputationLimitError
from .family import member
from .io import emit_json, emit_report, parse_curve_file, report_object, verdict_object
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


def _cmd_scan(args) -> int:
    p = _odd_prime(args.p)
    with open(args.file, encoding="utf-8") as fh:
        records = parse_curve_file(fh)
    eligible = []
    for rec in records:
        try:
            why = outside_hypothesis(rec.data, p)
            if why is None:
                rec.data.bad  # factored here, once, rather than retried by each of its pairs
        except (ValueError, ComputationLimitError) as exc:
            why = str(exc)
        if why is not None:
            print("skipping %s: %s" % (rec.label, why), file=sys.stderr)
            continue
        eligible.append(rec)
    pairs = [(a, b) for i, a in enumerate(eligible) for b in eligible[i + 1 :]]
    code = EXIT_OK
    emitted = []
    for a, b in pairs:
        verdict = check_congruence(a.data, b.data, p)
        if verdict.status is not CongruenceStatus.VERIFIED:
            print("%s / %s: congruence %s" % (a.label, b.label, verdict.status), file=sys.stderr)
            continue
        try:
            report = parity_relation(a.data, b.data, p, rank1=a.rank, rank2=b.rank, verdict=verdict,
                                     labels=(a.label, b.label))
        except ComputationLimitError as exc:
            # sigma0 needs the other curve's trace at each bad prime, and one
            # past the scan may exceed the counting ceiling
            print("%s / %s: %s" % (a.label, b.label, exc), file=sys.stderr)
            continue
        report = _deduce(report, None)
        emitted.append(report)
        if report.relation_holds is False:
            code = EXIT_VIOLATED
    if args.json:
        sys.stdout.write(emit_json([report_object(r) for r in emitted]))
    else:
        for i, report in enumerate(emitted):
            if i:
                sys.stdout.write("\n")
            _print_text_report(report, sys.stdout)
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paritykit",
        description="Congruence and rank-parity analysis for elliptic curves "
        "supersingular at an odd prime.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="full pipeline for one pair of curves")
    an.add_argument("--e1", required=True, help="curve literal [a1,a2,a3,a4,a6]")
    an.add_argument("--e2", required=True, help="curve literal [a1,a2,a3,a4,a6]")
    an.add_argument("-p", type=int, required=True, dest="p", help="odd supersingular prime")
    an.add_argument("--rank1", type=_rank, default=None)
    an.add_argument("--rank2", type=_rank, default=None)
    an.add_argument("--rank2-bound", type=_rank, default=None, dest="rank2_bound")
    an.add_argument("--assume-congruent", action="store_true")
    an.add_argument("--ranks-file", default=None)
    an.add_argument("--json", action="store_true")
    an.set_defaults(func=_cmd_analyze)

    co = sub.add_parser("congruent", help="congruence check only")
    co.add_argument("--e1", required=True)
    co.add_argument("--e2", required=True)
    co.add_argument("-p", type=int, required=True, dest="p")
    co.add_argument("--json", action="store_true")
    co.set_defaults(func=_cmd_congruent)

    li = sub.add_parser("local-info", help="reduction data for one curve")
    li.add_argument("--curve", required=True)
    li.add_argument("--ell", type=int, default=None)
    li.add_argument("--json", action="store_true")
    li.set_defaults(func=_cmd_local_info)

    fa = sub.add_parser("family", help="print a family member")
    fa.add_argument("--D", type=int, required=True)
    fa.add_argument("--t", type=int, required=True)
    fa.add_argument("--json", action="store_true")
    fa.set_defaults(func=_cmd_family)

    sc = sub.add_parser("scan", help="all-pairs congruence scan over a curve file")
    sc.add_argument("--file", required=True)
    sc.add_argument("-p", type=int, required=True, dest="p")
    sc.add_argument("--json", action="store_true")
    sc.set_defaults(func=_cmd_scan)
    return parser


def run(argv=None) -> int:
    # A CLI process serves one request, and what is alive at the first call is
    # what importing paritykit left, with no cyclic garbage pending.
    # Freezing it keeps the collections inside the request from walking it
    # again.  Later calls in one process (tests) leave their garbage collectable.
    if not gc.get_freeze_count():
        gc.freeze()
    args = _build_parser().parse_args(argv)
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
