"""Curve/rank database files and machine-readable parity reports.

File format, one record per line:

    label conductor [a1,a2,a3,a4,a6] rank

with "?" for an unknown conductor or rank and "#" starting a comment.  Reports
are JSON with a fixed key order.  Every JSON document goes through
``emit_json``, which serializes integers whose magnitude exceeds 2^53 as
decimal strings so consumers that read numbers as doubles do not lose
precision.
"""

from __future__ import annotations

import re
from _json import encode_basestring_ascii
from collections import namedtuple
from functools import cached_property

from .congruence import CongruenceVerdict
from .local import CurveData
from .parity import ParityReport
from .weierstrass import parse_curve

_LINE_RE = re.compile(r"^(\S+)\s+(\d+|\?)\s+(\[[^\]]*\])\s+(\d+|\?)$")
_BIG = 1 << 53


class CurveRecord(namedtuple("CurveRecord", "label curve conductor rank")):
    """One line of a curve file: label: str; curve: CurveModel; conductor, rank: int or None.

    Without __slots__ an instance has the __dict__ that data is cached in;
    equality and _replace stay those of the four fields.
    """

    @cached_property
    def data(self) -> CurveData:
        return CurveData(self.curve)


def parse_curve_file(lines) -> list[CurveRecord]:
    """Parse an iterable of lines into validated records with unique labels, in order."""
    records = []
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(lines, 1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        m = _LINE_RE.match(text)
        if not m:
            raise ValueError(
                "line %d: expected 'label conductor [a1,a2,a3,a4,a6] rank', got %r"
                % (lineno, text)
            )
        label, cond_text, curve_text, rank_text = m.groups()
        first = first_line.setdefault(label, lineno)
        if first != lineno:
            raise ValueError("line %d (%s): duplicate label, first on line %d" % (lineno, label, first))
        try:
            curve = parse_curve(curve_text)
        except ValueError as exc:
            raise ValueError("line %d (%s): %s" % (lineno, label, exc)) from None
        cond = None if cond_text == "?" else int(cond_text)
        rec = CurveRecord(label, curve, cond, None if rank_text == "?" else int(rank_text))
        try:
            data = rec.data
        except ValueError:  # the only check CurveData makes: a zero discriminant
            raise ValueError("line %d (%s): curve is singular" % (lineno, label)) from None
        if cond is not None and data.conductor != cond:
            raise ValueError(
                "line %d (%s): conductor mismatch: file says %d, computed %d"
                % (lineno, label, cond, data.conductor)
            )
        records.append(rec)
    return records


def emit_curve_file(records) -> str:
    """Inverse of parse_curve_file up to whitespace."""
    lines = []
    for r in records:
        cond = "?" if r.conductor is None else str(r.conductor)
        rank = "?" if r.rank is None else str(r.rank)
        lines.append("%s %s %s %s" % (r.label, cond, r.curve, rank))
    return "\n".join(lines) + "\n"


def _tau_block(records) -> dict:
    return {
        str(rec.ell): {"tau": rec.tau, "parity": rec.delta_parity, "case": rec.matched_case}
        for rec in sorted(records, key=lambda r: r.ell)
    }


def verdict_object(v: CongruenceVerdict) -> dict:
    """A congruence verdict as a plain JSON-compatible object."""
    return {
        "status": str(v.status),
        "level": v.level,
        "bound": v.bound,
        "checked_primes": v.checked_primes,
        "witness": list(v.witness) if v.witness is not None else None,
        "caveat": v.caveat,
    }


def report_object(r: ParityReport) -> dict:
    """The report as a plain JSON-compatible object tree."""
    evidence = {}
    for ell in r.sigma_data.sigma:
        ev = r.sigma_data.evidence.get(ell)
        if ev is None:
            continue
        evidence[str(ell)] = {
            "e1": list(ev.e1_reasons),
            "e2": list(ev.e2_reasons),
            "in_sigma0": ev.in_sigma0,
            "warnings": list(ev.warnings),
        }
    (r1, r2), (lhs, rhs) = r.ranks, r.parities
    deduced = None
    if r.deduced is not None:
        deduced = {
            "curve": r.deduced.curve,
            "parity": r.deduced.parity,
            "exact": r.deduced.exact,
            "candidates": list(r.deduced.candidates) if r.deduced.candidates is not None else None,
        }
    return {
        "schema_version": "2",
        "curves": [
            {"label": label, "coefficients": c.coefficients(), "conductor": n}
            for label, c, n in zip(r.labels, r.curves, r.conductors)
        ],
        "p": r.p,
        "congruence": None if r.congruence is None else verdict_object(r.congruence),
        "sigma": list(r.sigma_data.sigma),
        "sigma0": list(r.sigma_data.sigma0),
        "drop_evidence": evidence,
        "tau": {"e1": _tau_block(r.tau1), "e2": _tau_block(r.tau2)},
        "s1": sorted(r.s1),
        "s2": sorted(r.s2),
        "ranks": {"known": {"e1": r1, "e2": r2}, "deduced": deduced},
        "relation": {"holds": r.relation_holds, "lhs_parity": lhs, "rhs_parity": rhs},
        "hypotheses": [{"id": h.id, "detail": h.detail} for h in r.hypotheses],
    }


def emit_json(obj) -> str:
    """Deterministic JSON text of a plain object tree, big integers as strings.

    The text equals ``json.dumps(obj, indent=2)`` with every integer of
    magnitude above 2^53 replaced by its decimal string, plus a newline.
    """
    out: list[str] = []
    _write_json(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def json_list_item(obj) -> str:
    """The text of obj as an element of a list that emit_json writes whole."""
    out: list[str] = []
    _write_json(obj, "\n  ", out)
    return "".join(out)


def emit_json_list(items: list[str]) -> str:
    """emit_json of a list, given the json_list_item text of each element."""
    return "[\n  %s\n]\n" % ",\n  ".join(items) if items else "[]\n"


def _write_json(value, newline: str, out: list[str]) -> None:
    # newline is a line break followed by the indentation of value's own line.
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append('"%d"' % value if abs(value) > _BIG else "%d" % value)
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be str, got %s" % type(key).__name__)
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)


def emit_report(r: ParityReport) -> str:
    """Deterministic JSON serialization of a ParityReport."""
    return emit_json(report_object(r))
