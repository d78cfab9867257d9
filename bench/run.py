"""paritykit benchmark: one workload, one seed, one command.

    python3 bench/run.py --workload pair-cold --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Every request is a fresh interpreter
(worker.py), one at a time, so caches start cold exactly as they do for a
CLI user; nothing clears a cache.  Workloads run in whole rounds (see
workloads.py) until the next round would end past --seconds.

--trace 0 prints the end-to-end metrics; --trace 1 runs every round twice,
untraced and then traced on the same inputs, and prints the per-layer
metrics.  Each line before the last is "name value unit"; the last line is
one JSON object with the keys correct, attempted, failed and metrics.  The
full result, with its context and every failed check, goes to
bench/out/<workload>-seed<seed>-trace<0|1>.json; the spans of a traced run
go to bench/out/<workload>/.  The exit code is 1 when any output check
failed and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import oracle
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER_TIMEOUT_S = 150
# A tail is the highest of these percentiles with at least TAIL_BEYOND
# samples beyond it.  A fixed ladder keeps the tail at the same percentile
# while the request count moves with machine speed (40 to 99 requests: p75).
TAIL_PERCENTILES = (75, 90, 95, 99)
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("request_p50_s", "s"),
    ("request_tail_s", "s"),
    ("pairs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("decided_ratio", "ratio"),
)

# (metric, unit, traced function or module, field).  Additive fields are
# reported per traced round.
PER_LAYER = (
    ("arith.valuation.calls", "count", "arith.valuation", "calls"),
    ("arith.valuation.self_s", "s", "arith.valuation", "self_s"),
    ("arith.is_prime.calls", "count", "arith.is_prime", "calls"),
    ("arith.sieve_primes.self_s", "s", "arith.sieve_primes", "self_s"),
    ("arith.sieve_primes.max_limit", "count", "arith.sieve_primes", "max_limit"),
    ("arith.factor.calls", "count", "arith.factor", "calls"),
    ("arith.factor.self_s", "s", "arith.factor", "self_s"),
    ("arith.factor.max_s", "s", "arith.factor", "max_s"),
    ("arith.factor.budget_exhausted", "count", "arith.factor", "limit_errors"),
    ("congruence.sturm_bound.total_s", "s", "congruence.sturm_bound", "total_s"),
    ("weierstrass.minimal_model_at.calls", "count", "weierstrass.minimal_model_at", "calls"),
    ("weierstrass.minimal_model_at.self_s", "s", "weierstrass.minimal_model_at", "self_s"),
    ("weierstrass.minimal_model_at.repeat_ratio", "ratio", "weierstrass.minimal_model_at", "repeat_ratio"),
    ("weierstrass.minimal_model.self_s", "s", "weierstrass.minimal_model", "self_s"),
    ("weierstrass.transform.calls", "count", "weierstrass.transform", "calls"),
    ("local.tate_local.calls", "count", "local.tate_local", "calls"),
    ("local.tate_local.self_s", "s", "local.tate_local", "self_s"),
    ("local.tate_local.repeat_ratio", "ratio", "local.tate_local", "repeat_ratio"),
    ("local.count_points.calls", "count", "local.count_points", "calls"),
    ("local.count_points.self_s", "s", "local.count_points", "self_s"),
    ("local.count_points.max_s", "s", "local.count_points", "max_s"),
    ("local.count_points.max_ell", "count", "local.count_points", "max_ell"),
    ("local.count_points.ell_sum", "count", "local.count_points", "ell_sum"),
    ("local.count_points.limit_refusals", "count", "local.count_points", "limit_errors"),
    ("local.count_points.repeat_ratio", "ratio", "local.count_points", "repeat_ratio"),
    ("local.conductor.self_s", "s", "local.conductor", "self_s"),
    ("congruence.check_congruence.calls", "count", "congruence.check_congruence", "calls"),
    ("congruence.check_congruence.self_s", "s", "congruence.check_congruence", "self_s"),
    ("congruence.check_congruence.primes_compared", "count", "congruence.check_congruence", "checked"),
    ("congruence.check_congruence.verified", "count", "congruence.check_congruence", "Verified"),
    ("congruence.check_congruence.failed", "count", "congruence.check_congruence", "Failed"),
    ("congruence.check_congruence.inconclusive", "count", "congruence.check_congruence", "Inconclusive"),
    ("parity.compute_sigma0.self_s", "s", "parity.compute_sigma0", "self_s"),
    ("parity.tau.calls", "count", "parity.tau", "calls"),
    ("parity.parity_relation.self_s", "s", "parity.parity_relation", "self_s"),
    ("io.parse_curve_file.self_s", "s", "io.parse_curve_file", "self_s"),
    ("io.report_object.self_s", "s", "io.report_object", "self_s"),
    ("io.emit_report.self_s", "s", "io.emit_report", "self_s"),
    ("cli.run.total_s", "s", "cli.run", "total_s"),
    ("arith.self_s", "s", "arith", "module_self_s"),
    ("weierstrass.self_s", "s", "weierstrass", "module_self_s"),
    ("local.self_s", "s", "local", "module_self_s"),
    ("congruence.self_s", "s", "congruence", "module_self_s"),
    ("parity.self_s", "s", "parity", "module_self_s"),
    ("io.self_s", "s", "io", "module_self_s"),
    ("cli.self_s", "s", "cli", "module_self_s"),
)
PER_ROUND = ("calls", "self_s", "total_s", "ell_sum", "limit_errors", "checked",
             "Verified", "Failed", "Inconclusive", "module_self_s")


def run_worker(argv: list, trace: bool, request: int, spans_path: str | None) -> dict:
    env = dict(os.environ)
    # The documented limits stay at their defaults, so a raised limit shows
    # up as a change in decided_ratio.
    env.pop("PARITYKIT_MAX_ELL", None)
    payload = json.dumps({"argv": argv, "trace": trace, "request": request, "spans": spans_path})
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=payload, capture_output=True, text=True, cwd=ROOT, env=env,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"crash": "worker timed out after %d s" % WORKER_TIMEOUT_S}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"crash": "worker exited %d: %s" % (proc.returncode, tail[0])}
    return json.loads(proc.stdout)


def src_lines() -> int:
    total = 0
    for base, _dirs, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the tail; the maximum (100) below 4 * TAIL_BEYOND samples."""
    ordered = sorted(values)
    n = len(ordered)
    value, pct = ordered[-1], 100
    for q in TAIL_PERCENTILES:
        k = math.ceil(q * n / 100) - 1
        if n - 1 - k >= TAIL_BEYOND:
            value, pct = ordered[k], q
    return value, pct


def end_to_end(rows: list[dict]) -> tuple[dict, dict]:
    latencies = [r["run_s"] for r in rows]
    tail_s, tail_pct = tail(latencies)
    pairs = sum(r["pairs"] for r in rows)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in rows),
        "request_p50_s": statistics.median(latencies),
        "request_tail_s": tail_s,
        # curve pairs one request attempted per second of its cli.run
        "pairs_per_s": statistics.median(r["pairs"] / r["run_s"] for r in rows),
        "peak_rss_mb": max(r["rss_mb"] for r in rows),
        "decided_ratio": sum(r["decided"] for r in rows) / pairs,
    }
    samples = {
        "requests": len(rows),
        "request_tail_percentile": tail_pct,
        "pairs": pairs,
    }
    return metrics, samples


def per_layer(traced: list[dict], untraced: list[dict], rounds: int) -> tuple[dict, dict]:
    funcs: dict[str, dict] = {}
    modules: dict[str, float] = {}
    installed = {name for row in traced for name in row["layers"]["installed"]}
    worst_sum_error = 0.0
    for row in traced:
        layers = row["layers"]
        if layers["root_s"] > 0:
            worst_sum_error = max(worst_sum_error, abs(layers["self_sum_s"] - layers["root_s"]) / layers["root_s"])
        for name, f in layers["functions"].items():
            agg = funcs.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "max_s": 0.0,
                                          "repeats": 0, "limit_errors": 0})
            for key in ("calls", "self_s", "total_s", "repeats", "ell_sum", "checked",
                        "Verified", "Failed", "Inconclusive"):
                if key in f or key in agg:
                    agg[key] = agg.get(key, 0) + f.get(key, 0)
            for key in ("max_s", "max_ell", "max_limit"):
                if key in f:
                    agg[key] = max(agg.get(key, 0), f[key])
            agg["limit_errors"] += f["errors"].get("ComputationLimitError", 0)
            module = name.split(".")[0]
            modules[module] = modules.get(module, 0.0) + f["self_s"]
    metrics, absent = {}, []
    for metric, _unit, target, field in PER_LAYER:
        # A function installed but never called is idle (0); one that no
        # longer exists is absent and its metric is left out.
        if field == "module_self_s":
            if not any(name.startswith(target + ".") for name in installed):
                absent.append(metric)
                continue
            value = modules.get(target, 0.0)
        elif target not in installed:
            absent.append(metric)
            continue
        else:
            f = funcs.get(target, {})
            if field == "repeat_ratio":
                value = f.get("repeats", 0) / f["calls"] if f.get("calls") else 0.0
            else:
                value = f.get(field, 0)
        if field in PER_ROUND:
            value /= rounds
        metrics[metric] = value
    metrics["io.output_bytes"] = sum(r["output_bytes"] for r in traced) / rounds
    metrics["trace.overhead_ratio"] = sum(r["run_s"] for r in traced) / sum(r["run_s"] for r in untraced)
    ranked = sorted(funcs.items(), key=lambda kv: -kv[1]["self_s"])
    cli_total = funcs.get("cli.run", {}).get("total_s", 0.0)
    extra = {
        "absent": absent,
        "largest_self": [
            {"function": name, "self_s_per_round": f["self_s"] / rounds,
             "share_of_cli_run": f["self_s"] / cli_total if cli_total else None}
            for name, f in ranked[:5]
        ],
        "module_self_s_per_round": {m: s / rounds for m, s in sorted(modules.items(), key=lambda kv: -kv[1])},
        "self_sum_max_relative_error": worst_sum_error,
        "functions": funcs,
        "predictions": spans.PREDICTIONS,
    }
    return metrics, extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "paritykit", "cli.py")):
        print("error: no paritykit sources at %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    trace = bool(args.trace)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    # Curve files and spans of the latest run of each workload; results of
    # every run are kept in OUT/<tag>.json.
    run_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    make_round = workloads.ROUNDS[args.workload]

    rows, traced_rows, problems = [], [], []
    versions = {}
    attempted = failed = 0
    start = time.monotonic()
    rounds = 0
    last = 0.0
    while rounds == 0 or time.monotonic() - start + last <= args.seconds:
        began = time.monotonic()
        requests = make_round(args.seed, rounds, run_dir)
        passes = ((False, rows), (True, traced_rows)) if trace else ((False, rows),)
        for traced, sink in passes:
            for j, req in enumerate(requests):
                request_id = rounds * 1000 + j
                spans_path = os.path.join(run_dir, "spans-%d.jsonl.gz" % request_id) if traced else None
                res = run_worker(req["argv"], traced, request_id, spans_path)
                outcome = oracle.check(req, res)
                attempted += 1
                if outcome.problems:
                    failed += 1
                    problems.append({"round": rounds, "request": req.get("label", req["kind"]), "traced": traced,
                                     "argv": req["argv"], "problems": outcome.problems})
                if res.get("crash"):
                    continue
                row = {key: res[key] for key in ("code", "setup_s", "run_s", "rss_mb", "output_bytes")}
                row.update(round=rounds, request=req.get("label", req["kind"]), pairs=outcome.pairs,
                           decided=outcome.decided)
                versions = {"python": res["python"], "numpy": res["numpy"]}
                if traced:
                    row["layers"] = res["layers"]
                sink.append(row)
        rounds += 1
        last = time.monotonic() - began

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": {
            "nproc": os.cpu_count(),
            **versions,
            "src_lines": src_lines(),
        },
        "baseline": _baseline(args.workload),
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "error_ratio": failed / attempted,
        "errors": problems,
        "requests": [{k: v for k, v in r.items() if k != "layers"} for r in rows],
    }
    units = dict(END_TO_END)
    lines = []
    reported = {}
    complete = bool(rows) and len(rows) == rounds * len(requests)
    if complete:
        metrics, samples = end_to_end(rows)
        result.update(end_to_end=metrics, samples=samples, input=_describe_input(args.workload, requests))
        lines += ["%s %.6g %s" % (name, metrics[name], unit) for name, unit in END_TO_END]
        lines.append("error_ratio %.6g ratio" % result["error_ratio"])
        lines.append("request_tail_percentile %g (of %d requests)"
                     % (samples["request_tail_percentile"], len(rows)))
        reported = metrics
    if trace:
        complete = complete and len(traced_rows) == len(rows)
        if complete:
            reported, extra = per_layer(traced_rows, rows, rounds)
            result.update(per_layer=reported, per_layer_detail=extra)
            units = {name: unit for name, unit, _t, _f in PER_LAYER}
            units.update({"io.output_bytes": "B", "trace.overhead_ratio": "ratio"})
            lines += ["%s %.6g %s" % (name, value, units[name]) for name, value in reported.items()]
            top = extra["largest_self"][0]
            lines.append("largest self time: %s (%.1f%% of cli.run)"
                         % (top["function"], 100 * top["share_of_cli_run"]))
            lines.append("self times vs cli.run span: largest relative gap %.2g"
                         % extra["self_sum_max_relative_error"])
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    for p in problems:
        print("FAILED %s round %d: %s" % (p["request"], p["round"], "; ".join(p["problems"])), file=sys.stderr)
    correct = failed == 0 and complete
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
    }))
    return 0 if correct else 1


def _baseline(workload: str):
    path = os.path.join(HERE, "baseline.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def _describe_input(workload: str, requests: list[dict]) -> dict:
    if workload == "pair-cold":
        mix = [kind if D is None else "%s D=%d" % (kind, D) for kind, D in workloads.PAIR_COLD_MIX]
        return {"requests_per_round": len(requests), "mix": mix}
    req = requests[0]
    curves = workloads.TRIAGE_CURVES if workload == "scan-triage" else len(req["eligible"])
    return {"curves": curves, "eligible": len(req["eligible"]), "pairs": req["pairs"]}


if __name__ == "__main__":
    sys.exit(main())
