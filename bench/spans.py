"""Spans around paritykit's public functions, installed from outside the program.

``install`` wraps every public function of the traced modules and rebinds the
wrapper at every module attribute in the package that holds the original:
the defining module (so intra-module calls are seen), the modules that
from-imported it (cross-module calls) and the package's re-exports.  A span
is (name, start, end, parent index, request id), kept in memory and written
out by ``write``.  Self time is a span's duration minus the durations of its
direct children; spans nest because the program is single-threaded, so the
self times of one request add up to its cli.run span.

``family`` is not traced: it is closed-form and takes under 1 ms.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time

MODULES = ("arith", "weierstrass", "local", "congruence", "parity", "io", "cli")

# Functions whose (curve, ell) argument key is tracked: repeat_ratio is the
# share of calls whose key was already seen in the same request.
KEYED = ("weierstrass.minimal_model_at", "local.tate_local", "local.count_points")

# Per-layer metric -> (end-to-end metrics it should move, workload where it
# is mostly exercised, workload where it is nearly idle).  Written before the
# first measurement; run.py copies it into every traced result.
PREDICTIONS = {
    "arith.valuation": ("request_p50_s", "pair-cold", "scan-triage"),
    "arith.is_prime": ("request_p50_s", "pair-cold", "scan-triage"),
    "arith.sieve_primes": ("request_p50_s", "pair-cold", "scan-family"),
    "arith.factor": ("pairs_per_s", "scan-triage", "scan-family"),
    "congruence.sturm_bound": ("pairs_per_s", "scan-triage", "scan-family"),
    "weierstrass.minimal_model_at": ("request_p50_s", "pair-cold", "scan-triage"),
    "weierstrass.minimal_model": ("request_tail_s", "pair-cold", "scan-family"),
    "weierstrass.transform": ("request_tail_s", "pair-cold", "scan-family"),
    "local.tate_local": ("request_tail_s", "pair-cold (D = 35)", "scan-triage"),
    "local.count_points": ("pairs_per_s, peak_rss_mb, decided_ratio", "scan-family", "scan-triage"),
    "local.count_points.repeat_ratio": ("pairs_per_s", "scan-family", "pair-cold"),
    "local.conductor": ("pairs_per_s", "scan-family", "pair-cold"),
    "congruence.check_congruence": ("request_tail_s, decided_ratio", "pair-cold", "scan-family"),
    "parity": ("pairs_per_s", "scan-family", "scan-triage"),
    "io": ("pairs_per_s", "scan-family", "pair-cold"),
    "cli": ("all, as a sanity check", "all", "-"),
    "trace.overhead_ratio": ("all, as a sanity check", "all", "-"),
}


class Tracer:
    def __init__(self, request: int) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, request, info]
        self.stack: list[int] = []
        self.request = request
        self.keys: dict[str, set] = {name: set() for name in KEYED}
        self.installed: list[str] = []

    def wrap(self, name: str, fn):
        spans, stack, keys = self.spans, self.stack, self.keys.get(name)
        tracer = self

        def traced(*args, **kwargs):
            info = {}
            if keys is not None:
                key = (args[0], args[1])
                info["repeat"] = key in keys
                keys.add(key)
            if name == "local.count_points":
                info["ell"] = args[1]
            elif name == "arith.sieve_primes":
                info["limit"] = args[0]
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.request, info]
            index = len(spans)
            spans.append(rec)
            stack.append(index)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                info["error"] = type(exc).__name__
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if name == "congruence.check_congruence":
                info["status"] = str(result.status)
                info["checked"] = result.checked_primes
            return result

        return traced

    def write(self, path: str | None) -> None:
        if not path:
            return
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")))
                fh.write("\n")

    def summary(self) -> dict:
        """Per-function totals for this process, plus the self-time sum check."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        funcs: dict[str, dict] = {}
        self_total = 0.0
        root_total = 0.0
        for i, (name, start, end, parent, _request, info) in enumerate(self.spans):
            dur = end - start
            own = dur - child[i]
            self_total += own
            if parent < 0:
                root_total += dur
            f = funcs.get(name)
            if f is None:
                f = funcs[name] = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "max_s": 0.0,
                                   "repeats": 0, "errors": {}}
            f["calls"] += 1
            f["self_s"] += own
            f["total_s"] += dur
            f["max_s"] = max(f["max_s"], dur)
            if info.get("repeat"):
                f["repeats"] += 1
            error = info.get("error")
            if error:
                f["errors"][error] = f["errors"].get(error, 0) + 1
            if "ell" in info:
                f["max_ell"] = max(f.get("max_ell", 0), info["ell"])
                if not error and not info.get("repeat"):
                    # first sight of (curve, ell) in this process: the O(ell)
                    # counter ran, not the cache
                    f["ell_sum"] = f.get("ell_sum", 0) + info["ell"]
            if "limit" in info:
                f["max_limit"] = max(f.get("max_limit", 0), info["limit"])
            if "status" in info:
                f[info["status"]] = f.get(info["status"], 0) + 1
                f["checked"] = f.get("checked", 0) + info["checked"]
        return {"functions": funcs, "self_sum_s": self_total, "root_s": root_total,
                "installed": self.installed}


def install(request: int) -> Tracer:
    """Wrap the public functions of MODULES wherever the package binds them."""
    tracer = Tracer(request)
    wrappers = {}
    for short in MODULES:
        try:
            mod = importlib.import_module("paritykit." + short)
        except ImportError:
            # a module removed at a later commit: its metrics are absent
            continue
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = "%s.%s" % (short, attr)
            tracer.installed.append(name)
            wrappers[id(obj)] = (obj, tracer.wrap(name, obj))
    for modname, mod in list(sys.modules.items()):
        if modname != "paritykit" and not modname.startswith("paritykit."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    return tracer
